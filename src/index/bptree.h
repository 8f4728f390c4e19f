#ifndef EXTIDX_INDEX_BPTREE_H_
#define EXTIDX_INDEX_BPTREE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/iot.h"
#include "index/key.h"
#include "types/schema.h"

namespace exi {

class Transaction;

// Range-scan bound: key value + inclusivity.
struct KeyBound {
  CompositeKey key;
  bool inclusive = true;
};

// The engine's one built-in index: a non-unique B-tree over a composite
// key.  It is an index-organized table whose rows are (key columns...,
// rowid INTEGER), keyed on every column, so each (key, rowid) pair is one
// IOT row: the layout of a non-unique B-tree index entry in Oracle, and
// the layout the domain B-tree cartridge keeps.  Scans return rowids in
// (key, rowid) order.  This is the baseline access method the paper
// contrasts domain indexes with, and the comparison point for experiment
// E10 (framework overhead).  Domain indexes intentionally do NOT go
// through this class: they are driven through the ODCIIndex protocol
// (src/core/odci.h), which is the paper's point — user index code is
// invoked by the server, not modeled as a native access method.
class BTreeIndex {
 public:
  // An index on the columns of `table_schema` at positions `columns`, in
  // key order: positions are resolved once, at CREATE INDEX.
  BTreeIndex(std::string name, const Schema& table_schema,
             std::vector<size_t> columns);

  const std::string& name() const { return iot_.name(); }

  // Appends to `*entries` the entry (key columns..., rid) of table row
  // `row`, unless its leading key is NULL: NULLs are not indexed (Oracle
  // B-tree semantics).  Every write builds its entries here.
  void AddEntry(RowId rid, const Row& row, std::vector<Row>* entries) const;

  // Loads `entries`, in any order, into this empty index.
  Status BulkLoad(std::vector<Row> entries) {
    SortByKey(&entries, iot_.key_columns());
    return iot_.BulkLoad(std::move(entries));
  }

  // Applies one statement's change, the entries `removed` and `added`, as
  // one merge run (MergeEntryDiff).  Under `txn` the run is undone by one
  // undo entry, also when an error ends it.
  Status Write(std::vector<Row> removed, std::vector<Row> added,
               Transaction* txn);

  // RowIds of rows whose key equals `key`: a whole key is the leading
  // prefix of its (key, rid) rows.
  std::vector<RowId> ScanEqual(const CompositeKey& key) const {
    return ScanLeadingPrefix(key);
  }

  // RowIds of rows within [lo, hi]; absent bound = unbounded side.
  std::vector<RowId> ScanRange(const std::optional<KeyBound>& lo,
                               const std::optional<KeyBound>& hi) const;

  // RowIds of rows whose leading key components equal `prefix` (for
  // multi-column indexes answering predicates on a key prefix).
  std::vector<RowId> ScanLeadingPrefix(const CompositeKey& prefix) const;

  void Truncate() { iot_.Truncate(); }

 private:
  std::vector<size_t> columns_;
  Iot iot_;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_BPTREE_H_
