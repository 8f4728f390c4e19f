#ifndef EXTIDX_INDEX_KEY_H_
#define EXTIDX_INDEX_KEY_H_

#include <span>
#include <string>
#include <vector>

#include "types/value.h"

namespace exi {

// Composite index key: one Value per indexed column.
using CompositeKey = std::vector<Value>;

// A key read in place: the leading values of a row, or a whole
// CompositeKey (which converts to one implicitly).  It does not own them.
using KeySpan = std::span<const Value>;

// Total order over single values: Value::Compare where defined, with a
// deterministic tag-based fallback so heterogeneous keys (which a
// well-formed index never produces) still sort stably instead of erroring.
int TotalOrderCompare(const Value& a, const Value& b);

// Lexicographic total order over composite keys.  A shorter key that is a
// prefix of a longer key sorts first, which is what prefix scans rely on.
int CompareKeys(KeySpan a, KeySpan b);

// CompareKeys as a strict weak order, for ordered containers and sorts of
// keys and rows.
struct KeyLess {
  bool operator()(KeySpan a, KeySpan b) const { return CompareKeys(a, b) < 0; }
};

std::string KeyToString(KeySpan key);

}  // namespace exi

#endif  // EXTIDX_INDEX_KEY_H_
