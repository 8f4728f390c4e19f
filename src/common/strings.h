#ifndef EXTIDX_COMMON_STRINGS_H_
#define EXTIDX_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace exi {

// ASCII-only case mapping; SQL identifiers and keywords are ASCII.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

// Case-insensitive equality for SQL identifiers.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string> SplitAny(std::string_view s, std::string_view delims);

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

// 64-bit FNV-1a over bytes; used by Value::Hash and fingerprints.
uint64_t Fnv1a64(std::string_view bytes);
uint64_t Fnv1a64(const void* data, size_t len);

}  // namespace exi

#endif  // EXTIDX_COMMON_STRINGS_H_
