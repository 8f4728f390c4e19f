#ifndef EXTIDX_INDEX_BPTREE_H_
#define EXTIDX_INDEX_BPTREE_H_

#include <string>
#include <vector>

#include "index/bplus_tree.h"
#include "index/builtin_index.h"

namespace exi {

// Native non-unique B-tree index: composite key -> posting list of RowIds.
// This is the baseline access method the paper contrasts domain indexes
// with, and the comparison point for experiment E10 (framework overhead).
class BTreeIndex : public BuiltinIndex {
 public:
  explicit BTreeIndex(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  const char* kind() const override { return "BTREE"; }

  void Insert(const CompositeKey& key, RowId rid) override;
  void Delete(const CompositeKey& key, RowId rid) override;

  bool SupportsRange() const override { return true; }

  std::vector<RowId> ScanEqual(const CompositeKey& key) const override;

  Result<std::vector<RowId>> ScanRange(
      const std::optional<KeyBound>& lo,
      const std::optional<KeyBound>& hi) const override;

  Result<std::vector<RowId>> ScanLeadingPrefix(
      const CompositeKey& prefix) const override;

  void Truncate() override;

  uint64_t entry_count() const override { return entry_count_; }

  // Number of distinct keys (used by optimizer statistics).
  uint64_t distinct_keys() const { return tree_.size(); }
  size_t height() const { return tree_.height(); }

 private:
  std::string name_;
  // Each entry is a distinct key with its posting list.
  mutable BPlusTree<KeyedEntry<std::vector<RowId>>> tree_;
  uint64_t entry_count_ = 0;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_BPTREE_H_
