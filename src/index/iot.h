#ifndef EXTIDX_INDEX_IOT_H_
#define EXTIDX_INDEX_IOT_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "index/bplus_tree.h"
#include "types/schema.h"
#include "types/value.h"

namespace exi {

// Index-organized table: the paper's "index modeled as a table, where each
// row is an index entry".  Each row is stored once, in one B+-tree leaf
// slot, keyed by its first `key_columns` schema columns (the primary key);
// the tree reads that key in place from the row, so no copy of it is kept
// beside the row.  Cartridges use IOTs as the canonical store for index
// data — e.g. the text cartridge's inverted index is an IOT keyed
// (token, doc_rowid).
class Iot {
 public:
  Iot(std::string name, Schema schema, size_t key_columns);

  Iot(const Iot&) = delete;
  Iot& operator=(const Iot&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t key_columns() const { return key_columns_; }
  uint64_t row_count() const { return tree_.size(); }

  // Inserts; errors with AlreadyExists on duplicate primary key.
  Status Insert(Row row);

  // Inserts or replaces a run of rows whose primary keys are strictly
  // ascending along one held B+-tree path (BPlusTree::UpsertRun): a key
  // past the held leaf re-descends from the lowest held node that covers
  // it, and every node searched is metered.  When given, `*added` receives
  // copies of the keys that were new and `*replaced` the rows that were
  // overwritten, both in key order.  An unsorted or duplicate key, or a row
  // the schema rejects, returns an error before anything changes.
  Status UpsertSorted(std::vector<Row> rows, std::vector<CompositeKey>* added,
                      std::vector<Row>* replaced);

  // Deletes a run of strictly ascending primary keys along one held
  // B+-tree path, re-descending from the lowest covering held node and
  // metering every node searched (BPlusTree::ExtractRun); moves the
  // removed rows to `*removed` in key order when given.  Unsorted or
  // duplicate keys return an error before anything changes.  An absent
  // key stops the run with NotFound; the rows removed before it stay
  // removed and are in `*removed`.
  Status DeleteSorted(const std::vector<CompositeKey>& keys,
                      std::vector<Row>* removed);

  // Deletes by primary key.  Errors with NotFound if absent.
  Status Delete(const CompositeKey& key);

  // Loads `rows` into this empty IOT bottom-up.  Every row must pass the
  // schema and keys must be strictly ascending; otherwise returns an error
  // and leaves the IOT unchanged.
  Status BulkLoad(std::vector<Row> rows);

  // The errors Insert and Delete return for a present / absent key.
  Status DuplicateKeyError(KeySpan key) const;
  Status MissingKeyError(KeySpan key) const;

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

  // The error for keys of a sorted call that do not strictly ascend.
  Status UnsortedKeyError(const char* call, KeySpan key) const;

  std::string name_;
  Schema schema_;
  size_t key_columns_;
  mutable BPlusTree<Row, RowKey> tree_;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_IOT_H_
