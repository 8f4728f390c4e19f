#include "cartridge/params.h"

#include <cerrno>
#include <cstdlib>

#include "common/strings.h"

namespace exi {

void IndexParameters::SetAccumulatingKey(const std::string& key) {
  accumulating_.insert(ToLower(key));
}

void IndexParameters::Parse(const std::string& text) {
  std::vector<std::string> tokens = SplitAny(text, " \t\r\n");
  std::string current_key;
  for (const std::string& tok : tokens) {
    if (tok.size() > 1 && tok[0] == ':') {
      current_key = ToLower(tok.substr(1));
      if (accumulating_.count(current_key) == 0) {
        entries_[current_key] = {};  // replace earlier values
      }
    } else if (!current_key.empty()) {
      entries_[current_key].push_back(tok);
    }
  }
}

bool IndexParameters::Has(const std::string& key) const {
  return entries_.count(ToLower(key)) > 0;
}

std::string IndexParameters::Get(const std::string& key,
                                 const std::string& def) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end() || it->second.empty()) return def;
  return it->second[0];
}

Result<int64_t> IndexParameters::GetInt(const std::string& key, int64_t def,
                                        int64_t lo, int64_t hi) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end() || it->second.empty()) return def;
  const std::string& text = it->second[0];
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno != 0 || v < lo ||
      v > hi) {
    return Status::InvalidArgument(
        "PARAMETERS :" + key + " " + text + ": expected an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return int64_t(v);
}

Result<size_t> IndexParameters::GetOneOf(
    const std::string& key, std::initializer_list<const char*> allowed) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end() || it->second.empty()) return size_t{0};
  const std::string value = ToLower(it->second[0]);
  std::string expected;
  size_t pos = 0;
  for (const char* a : allowed) {
    if (value == a) return pos;
    expected += pos++ == 0 ? a : std::string(" or ") + a;
  }
  return Status::InvalidArgument("PARAMETERS :" + key + " " +
                                 it->second[0] + ": expected " + expected);
}

double IndexParameters::GetDouble(const std::string& key, double def) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end() || it->second.empty()) return def;
  return std::strtod(it->second[0].c_str(), nullptr);
}

std::vector<std::string> IndexParameters::GetList(
    const std::string& key) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end()) return {};
  return it->second;
}

std::string IndexParameters::ToString() const {
  std::string out;
  for (const auto& [key, values] : entries_) {
    if (!out.empty()) out += " ";
    out += ":" + key;
    for (const std::string& v : values) out += " " + v;
  }
  return out;
}

}  // namespace exi
