#include "index/key.h"

namespace exi {

int TotalOrderCompare(const Value& a, const Value& b) {
  // Fast path for the tags index keys are made of; same order as
  // Value::Compare.
  if (a.tag() == b.tag()) {
    if (a.tag() == TypeTag::kInteger) {
      return (a.AsInteger() > b.AsInteger()) - (a.AsInteger() < b.AsInteger());
    }
    if (a.tag() == TypeTag::kVarchar) {
      int c = a.AsVarchar().compare(b.AsVarchar());
      return (c > 0) - (c < 0);
    }
  }
  Result<int> cmp = Value::Compare(a, b);
  if (cmp.ok()) return *cmp;
  // Incomparable tags: order by tag id, then by printed form.
  if (a.tag() != b.tag()) {
    return int(a.tag()) < int(b.tag()) ? -1 : 1;
  }
  std::string sa = a.ToString();
  std::string sb = b.ToString();
  return sa < sb ? -1 : (sa > sb ? 1 : 0);
}

int CompareKeys(KeySpan a, KeySpan b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = TotalOrderCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

std::string KeyToString(KeySpan key) {
  std::string out = "[";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += ", ";
    out += key[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace exi
