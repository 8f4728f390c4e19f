#ifndef EXTIDX_TYPES_VALUE_H_
#define EXTIDX_TYPES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/datatype.h"

namespace exi {

// Stable physical row identifier.  Assigned by a heap table at insert time
// and never reused; the framework hands RowIds to ODCI maintenance routines
// and receives them back from ODCI scan routines, mirroring Oracle rowids.
using RowId = uint64_t;
inline constexpr RowId kInvalidRowId = 0;

// Identifier of a large object inside the LobStore.
using LobId = uint64_t;
inline constexpr LobId kInvalidLobId = 0;

class Value;
using ValueList = std::vector<Value>;

// Attribute values of an instance of a registered object type.
struct ObjectValue {
  std::string type_name;
  ValueList attributes;
};

// Dynamically typed runtime value, 16 bytes: a one-byte tag and one 8-byte
// union.  BOOLEAN, INTEGER, DOUBLE, LOB and ROWID live in the union itself.
// VARCHAR, BLOB, VARRAY and OBJECT keep their payload (the std::string, the
// bytes, the ValueList, the ObjectValue) in one heap box that starts with an
// atomic reference count, and the union holds the box pointer.  Copying a
// Value adds a reference and shares the payload; moving steals the pointer
// and leaves the source NULL; the last reference frees the box.  The count
// is atomic because join probes hand rows to pool threads.  Payloads are
// immutable once built, so sharing them needs no further locking.
//
// An accessor called on a Value of another tag returns the zero of its type
// (AsDouble converts an INTEGER); AsVarchar/AsBlob/AsVarray/AsObject
// require their own tag.
class Value {
 public:
  Value() noexcept : tag_(TypeTag::kNull) { u_.i = 0; }
  Value(const Value& other) noexcept : tag_(other.tag_), u_(other.u_) {
    if (boxed()) Ref();
  }
  Value(Value&& other) noexcept : tag_(other.tag_), u_(other.u_) {
    other.tag_ = TypeTag::kNull;
    other.u_.i = 0;
  }
  Value& operator=(const Value& other) noexcept {
    // Reference the new payload before releasing the old one, so
    // self-assignment never frees what it is about to share.
    if (other.boxed()) other.Ref();
    if (boxed()) Unref();
    tag_ = other.tag_;
    u_ = other.u_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (boxed()) Unref();
      tag_ = other.tag_;
      u_ = other.u_;
      other.tag_ = TypeTag::kNull;
      other.u_.i = 0;
    }
    return *this;
  }
  ~Value() {
    if (boxed()) Unref();
  }

  static Value Null() { return Value(); }
  static Value Boolean(bool b);
  static Value Integer(int64_t v);
  static Value Double(double v);
  static Value Varchar(std::string s);
  static Value Blob(std::vector<uint8_t> bytes);
  static Value Lob(LobId id);
  static Value Varray(ValueList elements);
  static Value Object(std::string type_name, ValueList attributes);
  static Value FromRowId(RowId rid);

  TypeTag tag() const { return tag_; }
  bool is_null() const { return tag_ == TypeTag::kNull; }

  bool AsBoolean() const { return tag_ == TypeTag::kBoolean && u_.b; }
  int64_t AsInteger() const { return tag_ == TypeTag::kInteger ? u_.i : 0; }
  double AsDouble() const {
    if (tag_ == TypeTag::kDouble) return u_.d;
    return tag_ == TypeTag::kInteger ? double(u_.i) : 0.0;
  }
  const std::string& AsVarchar() const { return Payload<std::string>(); }
  const std::vector<uint8_t>& AsBlob() const {
    return Payload<std::vector<uint8_t>>();
  }
  LobId AsLob() const { return tag_ == TypeTag::kLob ? u_.id : kInvalidLobId; }
  const ValueList& AsVarray() const { return Payload<ValueList>(); }
  const ObjectValue& AsObject() const { return Payload<ObjectValue>(); }
  RowId AsRowId() const {
    return tag_ == TypeTag::kRowId ? u_.id : kInvalidRowId;
  }

  // Returns true if this value's physical type can be stored in a column of
  // `type` (NULL is storable anywhere; INTEGER promotes to DOUBLE).
  bool ConformsTo(const DataType& type) const;

  // Three-way comparison for order-compatible values (same family; numeric
  // cross-compare allowed).  NULL sorts first.  Errors on incomparable tags.
  static Result<int> Compare(const Value& a, const Value& b);

  // SQL equality (NULL = anything  ->  false at predicate level; here NULL
  // equals NULL, callers handle SQL ternary logic).
  bool Equals(const Value& other) const;

  // Key for hashing (ANALYZE's distinct-value counts).
  uint64_t Hash() const;

  std::string ToString() const;

 private:
  // The shared part of every payload box: its reference count.
  struct Box {
    std::atomic<uint32_t> refs{1};
  };
  template <typename T>
  struct BoxOf : Box {
    explicit BoxOf(T v) : value(std::move(v)) {}
    T value;
  };

  // True for the tags whose payload lives in a box.
  bool boxed() const {
    return tag_ == TypeTag::kVarchar || tag_ == TypeTag::kBlob ||
           tag_ == TypeTag::kVarray || tag_ == TypeTag::kObject;
  }
  template <typename T>
  static Value Boxed(TypeTag tag, T payload);
  template <typename T>
  const T& Payload() const {
    return static_cast<const BoxOf<T>*>(u_.box)->value;
  }
  void Ref() const { u_.box->refs.fetch_add(1, std::memory_order_relaxed); }
  // Drops one reference; the last one frees the box by its tag.
  void Unref() noexcept;

  TypeTag tag_;
  union {
    bool b;
    int64_t i;
    double d;
    uint64_t id;  // LobId or RowId
    Box* box;
  } u_;
};

static_assert(sizeof(Value) == 16, "Value is a tag and one 8-byte union");

// A tuple of values; layout is positional against a Schema.
using Row = ValueList;

}  // namespace exi

#endif  // EXTIDX_TYPES_VALUE_H_
