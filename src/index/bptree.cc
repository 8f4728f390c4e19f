#include "index/bptree.h"

#include <algorithm>
#include <limits>

namespace exi {

namespace {

// The IOT schema of an index on `key_schema`: the key columns, then the
// rowid.  A rowid fits INTEGER: its segment bits stay below bit 63.
Schema EntrySchema(const Schema& key_schema) {
  Schema schema;
  for (const Column& col : key_schema.columns()) {
    schema.AddColumn(Column{col.name, col.type, false});
  }
  schema.AddColumn(Column{"rowid", DataType::Integer(), true});
  return schema;
}

// The rowid column's value.
Value RidValue(RowId rid) { return Value::Integer(int64_t(rid)); }

// A scan visitor that collects each row's rowid, its last column.
auto CollectRids(std::vector<RowId>* out) {
  return [out](const Row& row) {
    out->push_back(RowId(row.back().AsInteger()));
    return true;
  };
}

}  // namespace

BTreeIndex::BTreeIndex(std::string name, const Schema& key_schema)
    : iot_(std::move(name), EntrySchema(key_schema), key_schema.size() + 1) {}

Row BTreeIndex::EntryRow(const CompositeKey& key, RowId rid) {
  Row row;
  row.reserve(key.size() + 1);
  row.insert(row.end(), key.begin(), key.end());
  row.push_back(RidValue(rid));
  return row;
}

Status BTreeIndex::Insert(const CompositeKey& key, RowId rid) {
  return iot_.Insert(EntryRow(key, rid));
}

Status BTreeIndex::Delete(const CompositeKey& key, RowId rid) {
  return iot_.Delete(EntryRow(key, rid));
}

Status BTreeIndex::BulkLoad(
    std::vector<std::pair<CompositeKey, RowId>> entries) {
  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [key, rid] : entries) {
    // Each key becomes its row in place (Database::KeyFor leaves room for
    // the rowid), so the build makes no second copy of each key.
    key.push_back(RidValue(rid));
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end(), KeyLess());
  return iot_.BulkLoad(std::move(rows));
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
