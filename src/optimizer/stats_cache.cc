#include "optimizer/stats_cache.h"

#include <vector>

namespace exi {

namespace {

void ForgetSlices(const std::vector<IndexInfo*>& indexes) {
  for (IndexInfo* index : indexes) {
    for (IndexSlice& slice : index->slices) slice.stats.clear();
  }
}

}  // namespace

std::optional<SliceEstimate> PlannerStatsCache::Lookup(
    const IndexSlice& slice, const std::string& key) {
  auto it = slice.stats.find(key);
  if (it == slice.stats.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void PlannerStatsCache::Store(IndexSlice& slice, const std::string& key,
                              SliceEstimate entry) {
  slice.stats[key] = entry;
}

void PlannerStatsCache::InvalidateTable(const std::string& table_name) {
  ForgetSlices(catalog_->IndexesOnTable(table_name));
}

void PlannerStatsCache::Clear() {
  for (const std::string& table : catalog_->TableNames()) {
    ForgetSlices(catalog_->IndexesOnTable(table));
  }
}

size_t PlannerStatsCache::size() const {
  size_t n = 0;
  for (const IndexInfo* index : catalog_->Indexes()) {
    for (const IndexSlice& slice : index->slices) n += slice.stats.size();
  }
  return n;
}

}  // namespace exi
