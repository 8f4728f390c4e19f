#ifndef EXTIDX_INDEX_IOT_H_
#define EXTIDX_INDEX_IOT_H_

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "index/bplus_tree.h"
#include "types/schema.h"
#include "types/value.h"

namespace exi {

// A merge run's callback: given the i-th key's stored row (nullptr if
// none), the row the key is to hold, nullopt to hold none, or an error
// that ends the run (see Iot::MergeSorted).
using RowMerge = FunctionRef<Result<std::optional<Row>>(size_t, const Row*)>;

// Index-organized table: the paper's "index modeled as a table, where each
// row is an index entry".  Each row is stored once, in one B+-tree leaf
// slot, keyed by its first `key_columns` schema columns (the primary key);
// the tree reads that key in place from the row, so no copy of it is kept
// beside the row.  Cartridges use IOTs as the canonical store for index
// data — e.g. the text cartridge's inverted index is an IOT keyed
// (token, rid block).
class Iot {
 public:
  Iot(std::string name, Schema schema, size_t key_columns);

  Iot(const Iot&) = delete;
  Iot& operator=(const Iot&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t key_columns() const { return key_columns_; }
  uint64_t row_count() const { return tree_.size(); }

  // What a merge run changed: the keys it added and the rows it replaced
  // or deleted, each in key order.  Revert puts them back.
  struct MergeUndo {
    std::vector<CompositeKey> added;
    std::vector<Row> replaced;
    bool empty() const { return added.empty() && replaced.empty(); }
  };

  // Read-modify-writes a run of strictly ascending primary keys along one
  // held B+-tree path (BPlusTree::MergeRun): a key past the held leaf
  // re-descends from the lowest held node that covers it, and every node
  // searched is metered.  For each key, `merge(i, current)` sees the row
  // stored under keys[i] (nullptr if none) and returns the row the key is
  // to hold, whose primary key must be keys[i], or nullopt to hold none.
  // Unsorted or duplicate keys return an error before anything changes.
  // An error from `merge`, or a row the schema rejects or whose key
  // differs, ends the run there: the keys before it stay changed.  When
  // given, `*undo` receives what the run changed, also when an error ended
  // it.
  Status MergeSorted(const std::vector<CompositeKey>& keys, RowMerge merge,
                     MergeUndo* undo);

  // Puts back the rows a merge run changed, as one merge run.
  void Revert(MergeUndo undo);

  // Inserts `row` as a one-key merge run; errors with AlreadyExists on a
  // duplicate primary key.  `*undo`, when given, receives the added key.
  Status Insert(Row row, MergeUndo* undo = nullptr);

  // Deletes by primary key as a one-key merge run; errors with NotFound if
  // absent.  `*undo`, when given, receives the deleted row.
  Status Delete(const CompositeKey& key, MergeUndo* undo = nullptr);

  // Loads `rows` into this empty IOT bottom-up.  Every row must pass the
  // schema and keys must be strictly ascending; otherwise returns an error
  // and leaves the IOT unchanged.
  Status BulkLoad(std::vector<Row> rows);

  // Fetches the row with exactly this primary key.
  Result<Row> Get(const CompositeKey& key) const;

  // Visits rows whose leading key columns equal `prefix`, in key order.
  // The visitor returns false to stop early (supports incremental scans).
  // FunctionRef, not std::function: per-posting-list scans on the hottest
  // callback path must not pay a possible heap allocation per scan.
  void ScanPrefix(const CompositeKey& prefix,
                  FunctionRef<bool(const Row&)> visit) const;

  // Visits rows with key in [lo, hi] (nullptr = unbounded), in key order.
  void ScanRange(const CompositeKey* lo, bool lo_inclusive,
                 const CompositeKey* hi, bool hi_inclusive,
                 FunctionRef<bool(const Row&)> visit) const;

  void Truncate() { tree_.Clear(); }

  // The primary-key values of a full row, read in place: the span lives
  // as long as the row.
  KeySpan KeyOf(const Row& row) const { return tree_.KeyOf(row); }

 private:
  // Reads a row's primary key: its first `columns` values.
  struct RowKey {
    size_t columns;
    KeySpan operator()(const Row& row) const {
      return KeySpan(row).first(std::min(columns, row.size()));
    }
  };

  // The errors Insert and Delete return for a present / absent key.
  Status DuplicateKeyError(KeySpan key) const;
  Status MissingKeyError(KeySpan key) const;
  // The error for keys of a sorted call that do not strictly ascend.
  Status UnsortedKeyError(const char* call, KeySpan key) const;

  std::string name_;
  Schema schema_;
  size_t key_columns_;
  mutable BPlusTree<Row, RowKey> tree_;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_IOT_H_
