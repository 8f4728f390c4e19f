#ifndef EXTIDX_INDEX_KEY_H_
#define EXTIDX_INDEX_KEY_H_

#include <cstdint>
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

// A fixed-size byte image of a key's leading values that orders like
// CompareKeys under memcmp, so a sort over many keys can compare bytes
// instead of chasing each value's storage.  NULL, INTEGER and VARCHAR
// values are imaged; the image stops at the first value of another type or
// when it is full, and is then inexact.
struct KeyImage {
  static constexpr size_t kCapacity = 22;
  uint8_t size = 0;
  bool exact = true;  // holds every value: equal images mean equal keys
  uint8_t bytes[kCapacity];
};

KeyImage MakeKeyImage(const Value* values, size_t n);

// CompareKeys over two keys of `n` values, decided on their images where
// the images differ or both are exact, else on the values.
int CompareImagedKeys(const KeyImage& image_a, const Value* a,
                      const KeyImage& image_b, const Value* b, size_t n);

}  // namespace exi

#endif  // EXTIDX_INDEX_KEY_H_
