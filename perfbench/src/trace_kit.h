// Traced-run kit: benchmark-owned wrappers that time the calls into each
// engine layer without changing the engine.
//
//  * TracedIndex / TracedStats wrap a cartridge's OdciIndex / OdciStats and
//    forward every routine unchanged (Capabilities() and TraceLabel()
//    included), timing each call as a span.
//  * CountingContext decorates the ServerContext the engine hands a routine,
//    so time spent in server callbacks is measured separately; a routine's
//    self time is its span minus the callbacks it issued.
//  * SpanScope records spans (statement, name, start, end, parent) in
//    memory; they are written out when the run ends.
//
// Pool workers reach the wrappers through parallel scan prefetch and
// parallel index builds, so every counter is atomic, the span buffer is
// mutex-guarded, and the callback-time ledger is thread-local.
#ifndef PERFBENCH_TRACE_KIT_H_
#define PERFBENCH_TRACE_KIT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/odci.h"
#include "engine/connection.h"

namespace perfbench {

int64_t NowNs();

// ODCI routines the wrappers time (ODCIIndex* plus the two ODCIStats*).
enum class Routine : int {
  kCreate,
  kCreateStorage,
  kAlter,
  kTruncate,
  kDrop,
  kInsert,
  kDelete,
  kUpdate,
  kBatchInsert,
  kBatchDelete,
  kBatchUpdate,
  kStart,
  kFetch,
  kClose,
  kSelectivity,
  kIndexCost,
  kCount
};
const char* RoutineName(Routine r);

// Server callbacks timed individually; the rest are lumped into kOther.
enum class Callback : int {
  kIotUpsert,
  kIotInsert,
  kIotGet,
  kIotDelete,
  kIotScanPrefix,
  kIotScanRange,
  kScanBaseTable,
  kGetBaseTableRow,
  kOther,
  kCount
};
const char* CallbackName(Callback c);

struct Span {
  uint64_t stmt = 0;    // statement id; spans of one statement share it
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root (or a pool-worker span)
  const char* name = "";  // static storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class TraceKit {
 public:
  struct RoutineCounters {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> callback_ns{0};
    std::atomic<uint64_t> rows{0};  // Fetch: rids returned; Batch*: rows
  };
  struct CallbackCounters {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> rows{0};  // rows visited (scans)
  };

  TraceKit() = default;
  TraceKit(const TraceKit&) = delete;
  TraceKit& operator=(const TraceKit&) = delete;

  // Wrappers record only while enabled; set-up and result checks run with
  // recording off so they do not pollute the per-layer figures.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Marks the statements that build index storage (CREATE INDEX, ADD
  // PARTITION), for callback.per_doc_build.
  void set_in_build(bool on) { in_build_.store(on, std::memory_order_relaxed); }
  bool in_build() const { return in_build_.load(std::memory_order_relaxed); }

  // Starts a new statement on the calling (session) thread.
  uint64_t BeginStatement();

  uint32_t NextSpanId() { return next_span_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> TakeSpans();
  uint64_t dropped_spans() const { return dropped_.load(); }

  RoutineCounters& routine(Routine r) { return routines_[int(r)]; }
  CallbackCounters& callback(Callback c) { return callbacks_[int(c)]; }
  std::atomic<uint64_t> build_callbacks{0};
  std::atomic<uint64_t> build_docs{0};

  uint64_t current_statement() const { return current_stmt_.load(); }

 private:
  static constexpr size_t kMaxSpans = 1500000;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> in_build_{false};
  std::atomic<uint64_t> next_stmt_{0};
  std::atomic<uint64_t> current_stmt_{0};
  std::atomic<uint32_t> next_span_{0};
  std::atomic<uint64_t> dropped_{0};
  RoutineCounters routines_[int(Routine::kCount)];
  CallbackCounters callbacks_[int(Callback::kCount)];
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Times one span on the calling thread and makes it the parent of spans
// opened inside it.  A null kit makes the scope a no-op.
class SpanScope {
 public:
  SpanScope(TraceKit* kit, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t start_ns() const { return span_.start_ns; }

 private:
  TraceKit* kit_;
  Span span_;
  uint32_t saved_parent_ = 0;
};

// Re-points every registered indextype at a "Traced<impl>" implementation
// type whose factories wrap the cartridge's own.  Call after the cartridges
// are installed and before any domain index is created.
exi::Status InstallTracedImplementations(exi::Connection* conn, TraceKit* kit);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_KIT_H_
