#ifndef EXTIDX_INDEX_BPTREE_H_
#define EXTIDX_INDEX_BPTREE_H_

#include <optional>
#include <string>
#include <vector>

#include "index/bplus_tree.h"
#include "index/key.h"

namespace exi {

// Range-scan bound: key value + inclusivity.
struct KeyBound {
  CompositeKey key;
  bool inclusive = true;
};

// The engine's one built-in index: a non-unique B-tree mapping a composite
// key to a posting list of RowIds.  This is the baseline access method the
// paper contrasts domain indexes with, and the comparison point for
// experiment E10 (framework overhead).  Domain indexes intentionally do NOT
// go through this class: they are driven through the ODCIIndex protocol
// (src/core/odci.h), which is the paper's point — user index code is
// invoked by the server, not modeled as a native access method.
class BTreeIndex {
 public:
  explicit BTreeIndex(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void Insert(const CompositeKey& key, RowId rid);
  void Delete(const CompositeKey& key, RowId rid);

  // RowIds of rows whose key equals `key`.
  std::vector<RowId> ScanEqual(const CompositeKey& key) const;

  // RowIds of rows within [lo, hi]; absent bound = unbounded side.
  std::vector<RowId> ScanRange(const std::optional<KeyBound>& lo,
                               const std::optional<KeyBound>& hi) const;

  // RowIds of rows whose leading key components equal `prefix` (for
  // multi-column indexes answering predicates on a key prefix).
  std::vector<RowId> ScanLeadingPrefix(const CompositeKey& prefix) const;

  void Truncate();

  uint64_t entry_count() const { return entry_count_; }

  uint64_t distinct_keys() const { return tree_.size(); }

 private:
  std::string name_;
  // Each entry is a distinct key with its posting list.
  mutable BPlusTree<KeyedEntry<std::vector<RowId>>> tree_;
  uint64_t entry_count_ = 0;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_BPTREE_H_
