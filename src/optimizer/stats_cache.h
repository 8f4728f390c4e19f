#ifndef EXTIDX_OPTIMIZER_STATS_CACHE_H_
#define EXTIDX_OPTIMIZER_STATS_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "catalog/catalog.h"

namespace exi {

// The planner's view of memoized ODCIStatsSelectivity/ODCIStatsIndexCost
// answers, so repeated identical queries stop paying planning-time ODCI
// round-trips (visible as flat ODCIStats rows in V$ODCI_CALLS).
//
// It stores nothing itself: each domain-index slice owns its memo
// (IndexSlice::stats, keyed by the normalized predicate), and the
// DomainIndexManager code that changes a slice's contents — maintenance,
// slice DDL, builds — forgets it, so a dropped index or partition takes
// its entries along.  A transaction rollback clears every slice's memo,
// because entries computed inside the transaction may reflect uncommitted
// index state.  This class counts hits and misses over per-slice lookups.
// Selectivity and cost are memoized together: the planner always asks for
// them as a pair, and IndexCost depends on the selectivity input.
class PlannerStatsCache {
 public:
  explicit PlannerStatsCache(Catalog* catalog) : catalog_(catalog) {}

  // `key` is the planner's normalized predicate string.
  std::optional<SliceEstimate> Lookup(const IndexSlice& slice,
                                      const std::string& key);
  void Store(IndexSlice& slice, const std::string& key, SliceEstimate entry);

  // Forgets the memo of every slice of every index on `table_name`.
  void InvalidateTable(const std::string& table_name);

  // Forgets every slice's memo.
  void Clear();

  // Memoized answers across every slice in the catalog.
  size_t size() const;
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  Catalog* catalog_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace exi

#endif  // EXTIDX_OPTIMIZER_STATS_CACHE_H_
