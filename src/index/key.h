#ifndef EXTIDX_INDEX_KEY_H_
#define EXTIDX_INDEX_KEY_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace exi {

// Composite index key: one Value per indexed column.
using CompositeKey = std::vector<Value>;

// Total order over single values: Value::Compare where defined, with a
// deterministic tag-based fallback so heterogeneous keys (which a
// well-formed index never produces) still sort stably instead of erroring.
int TotalOrderCompare(const Value& a, const Value& b);

// Lexicographic total order over composite keys.  A shorter key that is a
// prefix of a longer key sorts first, which is what prefix scans rely on.
int CompareKeys(const CompositeKey& a, const CompositeKey& b);

std::string KeyToString(const CompositeKey& key);

}  // namespace exi

#endif  // EXTIDX_INDEX_KEY_H_
