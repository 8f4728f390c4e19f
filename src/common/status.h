#ifndef EXTIDX_COMMON_STATUS_H_
#define EXTIDX_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace exi {

// Error taxonomy for the whole engine. Mirrors the RocksDB/Arrow convention:
// operations that can fail return Status (or Result<T>), never throw across
// the public API boundary.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kNotSupported,
  kParseError,
  kBindError,
  kTypeMismatch,
  kConstraintViolation,
  kTransactionAborted,
  kCallbackViolation,  // indextype routine broke the SQL-callback rules
  kIoError,
  kBusy,  // transient resource contention; safe to retry (like kIoError)
  kInternal,
};

// Status carries an error code and a human-readable message.  The OK status
// is cheap (no allocation); error statuses allocate for the message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status CallbackViolation(std::string msg) {
    return Status(StatusCode::kCallbackViolation, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

// Returns the enumerator name, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

// Propagate a non-OK Status from the calling function.
#define EXI_RETURN_IF_ERROR(expr)             \
  do {                                        \
    ::exi::Status _st = (expr);               \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace exi

#endif  // EXTIDX_COMMON_STATUS_H_
