#ifndef EXTIDX_CARTRIDGE_PARAMS_H_
#define EXTIDX_CARTRIDGE_PARAMS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"

namespace exi {

// Parses the uninterpreted PARAMETERS string of a domain index (§2.3).
// The conventional cartridge format is colon-prefixed keys followed by
// whitespace-separated values, e.g.
//   ':Language English :Ignore the a an'
// Keys are case-insensitive; a repeated key replaces the earlier values.
class IndexParameters {
 public:
  IndexParameters() = default;
  explicit IndexParameters(const std::string& text) { Parse(text); }

  // Keys that accumulate values across repeated occurrences instead of
  // replacing them (e.g. the text cartridge's stop-word list, which
  // `ALTER INDEX ... PARAMETERS (':Ignore COBOL')` extends, §2.3).
  void SetAccumulatingKey(const std::string& key);

  // Parses `text`, merging into (and overriding, unless accumulating)
  // existing keys — this is how ALTER INDEX ... PARAMETERS incrementally
  // updates settings (the engine concatenates parameter strings).
  void Parse(const std::string& text);

  bool Has(const std::string& key) const;

  // First value of the key, or `def`.
  std::string Get(const std::string& key, const std::string& def = "") const;
  double GetDouble(const std::string& key, double def) const;

  // The key's first value as an integer in [lo, hi], or `def` when the key
  // is absent.  Any other value is InvalidArgument naming key and value.
  Result<int64_t> GetInt(const std::string& key, int64_t def, int64_t lo,
                         int64_t hi) const;
  // The position in `allowed` (lowercase words) of the key's first value,
  // matched case-insensitively; 0, the default, when the key is absent.
  // Any other value is InvalidArgument naming key and value.
  Result<size_t> GetOneOf(const std::string& key,
                          std::initializer_list<const char*> allowed) const;

  // All values of the key (e.g. the stop-word list).
  std::vector<std::string> GetList(const std::string& key) const;

  // Serializes back to the canonical ':Key v1 v2 ...' form.
  std::string ToString() const;

 private:
  std::map<std::string, std::vector<std::string>> entries_;
  std::set<std::string> accumulating_;
};

}  // namespace exi

#endif  // EXTIDX_CARTRIDGE_PARAMS_H_
