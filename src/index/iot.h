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

// Sorts entry rows on their first `key_columns` values.
void SortByKey(std::vector<Row>* rows, size_t key_columns);

// Applies one change to a table of entry rows keyed on their first
// `key_columns` columns as one merge run through `run` (Iot::MergeSorted
// or ServerContext::IotMergeSorted): the `removed` entries go and the
// `added` ones come, each list in any order.  A key in both lists holds
// its added row, unless the two rows are equal (an UPDATE that leaves an
// entry alone): then it is left out, and a change that cancels out makes
// no run.  An absent removed entry is NotFound and a present added one
// AlreadyExists, naming `table`.
Status MergeEntryDiff(std::vector<Row> removed, std::vector<Row> added,
                      size_t key_columns, const std::string& table,
                      FunctionRef<Status(const std::vector<CompositeKey>&,
                                         RowMerge)> run);

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

  // MergeEntryDiff of `removed` and `added` as a merge run on this IOT;
  // `*undo`, when given, receives what the run changed.
  Status WriteEntries(std::vector<Row> removed, std::vector<Row> added,
                      MergeUndo* undo = nullptr);

  // WriteEntries of one added row (AlreadyExists on a duplicate primary
  // key) or one removed key (NotFound if absent).
  Status Insert(Row row, MergeUndo* undo = nullptr);
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

  // The error Get returns for an absent key.
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
