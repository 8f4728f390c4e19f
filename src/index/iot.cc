#include "index/iot.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"

namespace exi {

Iot::Iot(std::string name, Schema schema, size_t key_columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(key_columns) {
  assert(key_columns_ > 0 && key_columns_ <= schema_.size());
}

CompositeKey Iot::KeyOf(const Row& row) const {
  return CompositeKey(row.begin(),
                      row.begin() + std::min(key_columns_, row.size()));
}

Status Iot::DuplicateKeyError(const CompositeKey& key) const {
  return Status::AlreadyExists("duplicate key " + KeyToString(key) +
                               " in IOT " + name_);
}

Status Iot::MissingKeyError(const CompositeKey& key) const {
  return Status::NotFound("no key " + KeyToString(key) + " in IOT " + name_);
}

Status Iot::Insert(Row row) {
  EXI_RETURN_IF_ERROR(schema_.ValidateRow(row));
  CompositeKey key = KeyOf(row);
  if (tree_.Find(key) != nullptr) return DuplicateKeyError(key);
  tree_.GetOrInsert(key) = std::move(row);
  GlobalMetrics().index_entries_written++;
  return Status::OK();
}

Status Iot::Upsert(Row row) {
  EXI_RETURN_IF_ERROR(schema_.ValidateRow(row));
  CompositeKey key = KeyOf(row);
  tree_.GetOrInsert(key) = std::move(row);
  GlobalMetrics().index_entries_written++;
  return Status::OK();
}

Status Iot::Upsert(Row row, std::optional<Row>* old) {
  EXI_RETURN_IF_ERROR(schema_.ValidateRow(row));
  CompositeKey key = KeyOf(row);
  *old = tree_.Upsert(key, std::move(row));
  GlobalMetrics().index_entries_written++;
  return Status::OK();
}

Status Iot::Delete(const CompositeKey& key, Row* old) {
  std::optional<Row> removed = tree_.Extract(key);
  if (!removed.has_value()) return MissingKeyError(key);
  if (old != nullptr) *old = std::move(*removed);
  GlobalMetrics().index_entries_written++;
  return Status::OK();
}

Status Iot::BulkLoad(std::vector<Row> rows) {
  if (tree_.size() != 0) {
    return Status::NotSupported("bulk load into non-empty IOT " + name_);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    EXI_RETURN_IF_ERROR(schema_.ValidateRow(rows[i]));
    if (i > 0 && ComparePrimaryKeys(rows[i - 1], rows[i]) >= 0) {
      return Status::InvalidArgument(
          "bulk load keys not strictly ascending at " +
          KeyToString(KeyOf(rows[i])) + " in IOT " + name_);
    }
  }
  GlobalMetrics().index_entries_written += rows.size();
  auto row = rows.begin();
  tree_.BulkLoad(rows.size(), [&](CompositeKey* key, Row* payload) {
    *key = KeyOf(*row);
    *payload = std::move(*row++);
  });
  return Status::OK();
}

int Iot::ComparePrimaryKeys(const Row& a, const Row& b) const {
  for (size_t i = 0; i < key_columns_; ++i) {
    int c = TotalOrderCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

Result<Row> Iot::Get(const CompositeKey& key) const {
  const Row* row = tree_.Find(key);
  if (row == nullptr) return MissingKeyError(key);
  return *row;
}

void Iot::ScanPrefix(const CompositeKey& prefix,
                     FunctionRef<bool(const Row&)> visit) const {
  for (auto it = tree_.Seek(prefix); it.Valid(); it.Next()) {
    const CompositeKey& key = it.key();
    if (key.size() < prefix.size()) break;
    for (size_t i = 0; i < prefix.size(); ++i) {
      if (TotalOrderCompare(key[i], prefix[i]) != 0) return;
    }
    if (!visit(it.payload())) break;
  }
}

void Iot::ScanRange(const CompositeKey* lo, bool lo_inclusive,
                    const CompositeKey* hi, bool hi_inclusive,
                    FunctionRef<bool(const Row&)> visit) const {
  auto it = lo != nullptr ? tree_.Seek(*lo) : tree_.Begin();
  for (; it.Valid(); it.Next()) {
    if (lo != nullptr && !lo_inclusive && CompareKeys(it.key(), *lo) == 0) {
      continue;
    }
    if (hi != nullptr) {
      int c = CompareKeys(it.key(), *hi);
      if (c > 0 || (c == 0 && !hi_inclusive)) break;
    }
    if (!visit(it.payload())) break;
  }
}

}  // namespace exi
