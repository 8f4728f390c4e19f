#include "types/value.h"

#include <cmath>
#include <sstream>

#include "common/strings.h"

namespace exi {

Value Value::Boolean(bool b) {
  Value v;
  v.tag_ = TypeTag::kBoolean;
  v.u_.b = b;
  return v;
}

Value Value::Integer(int64_t i) {
  Value v;
  v.tag_ = TypeTag::kInteger;
  v.u_.i = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.tag_ = TypeTag::kDouble;
  v.u_.d = d;
  return v;
}

template <typename T>
Value Value::Boxed(TypeTag tag, T payload) {
  Value v;
  v.tag_ = tag;
  v.u_.box = new BoxOf<T>(std::move(payload));
  return v;
}

Value Value::Varchar(std::string s) {
  return Boxed(TypeTag::kVarchar, std::move(s));
}

Value Value::Blob(std::vector<uint8_t> bytes) {
  return Boxed(TypeTag::kBlob, std::move(bytes));
}

Value Value::Lob(LobId id) {
  Value v;
  v.tag_ = TypeTag::kLob;
  v.u_.id = id;
  return v;
}

Value Value::Varray(ValueList elements) {
  return Boxed(TypeTag::kVarray, std::move(elements));
}

Value Value::Object(std::string type_name, ValueList attributes) {
  return Boxed(TypeTag::kObject,
               ObjectValue{std::move(type_name), std::move(attributes)});
}

Value Value::FromRowId(RowId rid) {
  Value v;
  v.tag_ = TypeTag::kRowId;
  v.u_.id = rid;
  return v;
}

void Value::Unref() noexcept {
  if (u_.box->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  switch (tag_) {
    case TypeTag::kVarchar:
      delete static_cast<BoxOf<std::string>*>(u_.box);
      return;
    case TypeTag::kBlob:
      delete static_cast<BoxOf<std::vector<uint8_t>>*>(u_.box);
      return;
    case TypeTag::kVarray:
      delete static_cast<BoxOf<ValueList>*>(u_.box);
      return;
    case TypeTag::kObject:
      delete static_cast<BoxOf<ObjectValue>*>(u_.box);
      return;
    default:
      return;
  }
}

bool Value::ConformsTo(const DataType& type) const {
  if (is_null()) return true;
  switch (type.tag()) {
    case TypeTag::kDouble:
      return tag_ == TypeTag::kDouble || tag_ == TypeTag::kInteger;
    case TypeTag::kVarray:
      if (tag_ != TypeTag::kVarray) return false;
      for (const Value& e : AsVarray()) {
        if (!e.is_null() && e.tag() != type.element_tag() &&
            !(type.element_tag() == TypeTag::kDouble &&
              e.tag() == TypeTag::kInteger)) {
          return false;
        }
      }
      return true;
    case TypeTag::kObject:
      return tag_ == TypeTag::kObject &&
             EqualsIgnoreCase(AsObject().type_name, type.object_type());
    default:
      return tag_ == type.tag();
  }
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;
  // Numeric cross-comparison.
  if ((a.tag_ == TypeTag::kInteger || a.tag_ == TypeTag::kDouble) &&
      (b.tag_ == TypeTag::kInteger || b.tag_ == TypeTag::kDouble)) {
    if (a.tag_ == TypeTag::kInteger && b.tag_ == TypeTag::kInteger) {
      if (a.u_.i < b.u_.i) return -1;
      if (a.u_.i > b.u_.i) return 1;
      return 0;
    }
    double da = a.AsDouble();
    double db = b.AsDouble();
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  if (a.tag_ != b.tag_) {
    return Status::TypeMismatch(std::string("cannot compare ") +
                                TypeTagName(a.tag_) + " with " +
                                TypeTagName(b.tag_));
  }
  switch (a.tag_) {
    case TypeTag::kBoolean:
      return int(a.u_.b) - int(b.u_.b);
    case TypeTag::kVarchar: {
      int c = a.AsVarchar().compare(b.AsVarchar());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeTag::kBlob: {
      if (a.AsBlob() < b.AsBlob()) return -1;
      if (b.AsBlob() < a.AsBlob()) return 1;
      return 0;
    }
    case TypeTag::kRowId:
    case TypeTag::kLob:
      if (a.u_.id < b.u_.id) return -1;
      if (a.u_.id > b.u_.id) return 1;
      return 0;
    default:
      return Status::TypeMismatch(std::string("type not comparable: ") +
                                  TypeTagName(a.tag_));
  }
}

bool Value::Equals(const Value& other) const {
  if (tag_ != other.tag_) {
    // Allow numeric cross-equality.
    if ((tag_ == TypeTag::kInteger || tag_ == TypeTag::kDouble) &&
        (other.tag_ == TypeTag::kInteger ||
         other.tag_ == TypeTag::kDouble)) {
      return AsDouble() == other.AsDouble();
    }
    return false;
  }
  switch (tag_) {
    case TypeTag::kNull:
      return true;
    case TypeTag::kBoolean:
      return u_.b == other.u_.b;
    case TypeTag::kInteger:
      return u_.i == other.u_.i;
    case TypeTag::kDouble:
      return u_.d == other.u_.d;
    case TypeTag::kVarchar:
      return AsVarchar() == other.AsVarchar();
    case TypeTag::kBlob:
      return AsBlob() == other.AsBlob();
    case TypeTag::kLob:
    case TypeTag::kRowId:
      return u_.id == other.u_.id;
    case TypeTag::kVarray: {
      const ValueList& list = AsVarray();
      const ValueList& other_list = other.AsVarray();
      if (list.size() != other_list.size()) return false;
      for (size_t i = 0; i < list.size(); ++i) {
        if (!list[i].Equals(other_list[i])) return false;
      }
      return true;
    }
    case TypeTag::kObject: {
      const ObjectValue& obj = AsObject();
      const ObjectValue& other_obj = other.AsObject();
      if (!EqualsIgnoreCase(obj.type_name, other_obj.type_name) ||
          obj.attributes.size() != other_obj.attributes.size()) {
        return false;
      }
      for (size_t i = 0; i < obj.attributes.size(); ++i) {
        if (!obj.attributes[i].Equals(other_obj.attributes[i])) return false;
      }
      return true;
    }
  }
  return false;
}

uint64_t Value::Hash() const {
  switch (tag_) {
    case TypeTag::kNull:
      return 0x9E3779B9;
    case TypeTag::kBoolean:
      return u_.b ? 0xB5297A4D : 0x68E31DA4;
    case TypeTag::kInteger:
      return Fnv1a64(&u_.i, sizeof(u_.i));
    case TypeTag::kDouble: {
      // Hash integral doubles like the equal integer so cross-type equality
      // implies equal hashes.
      double d = u_.d;
      if (d == std::floor(d) && d >= -9.2e18 && d <= 9.2e18) {
        int64_t i = static_cast<int64_t>(d);
        return Fnv1a64(&i, sizeof(i));
      }
      return Fnv1a64(&d, sizeof(d));
    }
    case TypeTag::kVarchar:
      return Fnv1a64(AsVarchar());
    case TypeTag::kBlob:
      return Fnv1a64(AsBlob().data(), AsBlob().size());
    case TypeTag::kLob:
    case TypeTag::kRowId:
      return Fnv1a64(&u_.id, sizeof(u_.id));
    case TypeTag::kVarray: {
      uint64_t h = 0x1234;
      for (const Value& e : AsVarray()) h = h * 1099511628211ULL ^ e.Hash();
      return h;
    }
    case TypeTag::kObject: {
      uint64_t h = Fnv1a64(ToLower(AsObject().type_name));
      for (const Value& e : AsObject().attributes) {
        h = h * 1099511628211ULL ^ e.Hash();
      }
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (tag_) {
    case TypeTag::kNull:
      return "NULL";
    case TypeTag::kBoolean:
      return u_.b ? "TRUE" : "FALSE";
    case TypeTag::kInteger:
      os << u_.i;
      return os.str();
    case TypeTag::kDouble:
      os << u_.d;
      return os.str();
    case TypeTag::kVarchar:
      return "'" + AsVarchar() + "'";
    case TypeTag::kBlob:
      os << "BLOB(" << AsBlob().size() << " bytes)";
      return os.str();
    case TypeTag::kLob:
      os << "LOB#" << u_.id;
      return os.str();
    case TypeTag::kRowId:
      os << "ROWID(" << u_.id << ")";
      return os.str();
    case TypeTag::kVarray: {
      os << "VARRAY(";
      const ValueList& list = AsVarray();
      for (size_t i = 0; i < list.size(); ++i) {
        if (i) os << ", ";
        os << list[i].ToString();
      }
      os << ")";
      return os.str();
    }
    case TypeTag::kObject: {
      const ObjectValue& obj = AsObject();
      os << obj.type_name << "(";
      for (size_t i = 0; i < obj.attributes.size(); ++i) {
        if (i) os << ", ";
        os << obj.attributes[i].ToString();
      }
      os << ")";
      return os.str();
    }
  }
  return "?";
}

}  // namespace exi
