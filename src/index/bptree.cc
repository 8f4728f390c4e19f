#include "index/bptree.h"

#include <limits>

#include "txn/transaction.h"

namespace exi {

namespace {

// The IOT schema of an index on the `columns` of `table_schema`: the key
// columns, then the rowid.  A rowid fits INTEGER: its segment bits stay
// below bit 63.
Schema EntrySchema(const Schema& table_schema,
                   const std::vector<size_t>& columns) {
  Schema schema;
  for (size_t c : columns) {
    const Column& col = table_schema.column(c);
    schema.AddColumn(Column{col.name, col.type, false});
  }
  schema.AddColumn(Column{"rowid", DataType::Integer(), true});
  return schema;
}

// A scan visitor that collects each row's rowid, its last column.
auto CollectRids(std::vector<RowId>* out) {
  return [out](const Row& row) {
    out->push_back(RowId(row.back().AsInteger()));
    return true;
  };
}

}  // namespace

BTreeIndex::BTreeIndex(std::string name, const Schema& table_schema,
                       std::vector<size_t> columns)
    : columns_(std::move(columns)),
      iot_(std::move(name), EntrySchema(table_schema, columns_),
           columns_.size() + 1) {}

void BTreeIndex::AddEntry(RowId rid, const Row& row,
                          std::vector<Row>* entries) const {
  if (row[columns_[0]].is_null()) return;
  Row& entry = entries->emplace_back();
  entry.reserve(columns_.size() + 1);
  for (size_t c : columns_) entry.push_back(row[c]);
  entry.push_back(Value::Integer(int64_t(rid)));
}

Status BTreeIndex::Write(std::vector<Row> removed, std::vector<Row> added,
                         Transaction* txn) {
  Iot::MergeUndo undo;
  Status s = iot_.WriteEntries(std::move(removed), std::move(added),
                               txn != nullptr ? &undo : nullptr);
  if (txn != nullptr) txn->PushRevert(&iot_, std::move(undo));
  return s;
}

std::vector<RowId> BTreeIndex::ScanRange(
    const std::optional<KeyBound>& lo,
    const std::optional<KeyBound>& hi) const {
  // (k, rid) sorts after (k), so `> k` and `<= k` must step over or take
  // in every row of k: a whole key k is padded with a rowid above every
  // stored one.  `>= k`, `< k` and a shorter (prefix) bound need no pad.
  auto iot_bound = [this](const std::optional<KeyBound>& bound, bool pad,
                          CompositeKey* key) -> const CompositeKey* {
    if (!bound.has_value()) return nullptr;
    *key = bound->key;
    if (pad && key->size() + 1 == iot_.key_columns()) {
      key->push_back(Value::Integer(std::numeric_limits<int64_t>::max()));
    }
    return key;
  };
  CompositeKey lo_key;
  CompositeKey hi_key;
  std::vector<RowId> out;
  iot_.ScanRange(iot_bound(lo, lo && !lo->inclusive, &lo_key),
                 lo && lo->inclusive,
                 iot_bound(hi, hi && hi->inclusive, &hi_key),
                 hi && hi->inclusive, CollectRids(&out));
  return out;
}

std::vector<RowId> BTreeIndex::ScanLeadingPrefix(
    const CompositeKey& prefix) const {
  std::vector<RowId> out;
  iot_.ScanPrefix(prefix, CollectRids(&out));
  return out;
}

}  // namespace exi
