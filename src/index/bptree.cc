#include "index/bptree.h"

#include <algorithm>

#include "common/metrics.h"

namespace exi {

void BTreeIndex::Insert(const CompositeKey& key, RowId rid) {
  auto make = [&] { return KeyedEntry<std::vector<RowId>>{key, {}}; };
  tree_.GetOrInsert(key, make).value.push_back(rid);
  ++entry_count_;
  GlobalMetrics().index_entries_written++;
}

void BTreeIndex::Delete(const CompositeKey& key, RowId rid) {
  auto* entry = tree_.Find(key);
  if (entry == nullptr) return;
  std::vector<RowId>& postings = entry->value;
  auto it = std::find(postings.begin(), postings.end(), rid);
  if (it == postings.end()) return;
  postings.erase(it);
  --entry_count_;
  GlobalMetrics().index_entries_written++;
  if (postings.empty()) tree_.Erase(key);
}

std::vector<RowId> BTreeIndex::ScanEqual(const CompositeKey& key) const {
  const auto* entry = tree_.Find(key);
  if (entry == nullptr) return {};
  return entry->value;
}

std::vector<RowId> BTreeIndex::ScanRange(
    const std::optional<KeyBound>& lo,
    const std::optional<KeyBound>& hi) const {
  std::vector<RowId> out;
  auto it = lo.has_value() ? tree_.Seek(lo->key) : tree_.Begin();
  for (; it.Valid(); it.Next()) {
    if (lo.has_value() && !lo->inclusive &&
        CompareKeys(it.key(), lo->key) == 0) {
      continue;
    }
    if (hi.has_value()) {
      int c = CompareKeys(it.key(), hi->key);
      if (c > 0 || (c == 0 && !hi->inclusive)) break;
    }
    const std::vector<RowId>& postings = it.entry().value;
    out.insert(out.end(), postings.begin(), postings.end());
  }
  return out;
}

std::vector<RowId> BTreeIndex::ScanLeadingPrefix(
    const CompositeKey& prefix) const {
  std::vector<RowId> out;
  for (auto it = tree_.Seek(prefix); it.Valid(); it.Next()) {
    KeySpan key = it.key();
    if (key.size() < prefix.size() ||
        CompareKeys(key.first(prefix.size()), prefix) != 0) {
      break;
    }
    const std::vector<RowId>& postings = it.entry().value;
    out.insert(out.end(), postings.begin(), postings.end());
  }
  return out;
}

void BTreeIndex::Truncate() {
  tree_.Clear();
  entry_count_ = 0;
}

}  // namespace exi
