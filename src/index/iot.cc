#include "index/iot.h"

#include <algorithm>
#include <cassert>
#include <optional>

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

Status Iot::UpsertSorted(std::vector<Row> rows,
                         std::vector<CompositeKey>* added,
                         std::vector<Row>* replaced) {
  std::vector<CompositeKey> keys;
  keys.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXI_RETURN_IF_ERROR(schema_.ValidateRow(rows[i]));
    keys.push_back(KeyOf(rows[i]));
    if (i > 0 && ComparePrimaryKeys(rows[i - 1], rows[i]) >= 0) {
      return UnsortedKeyError("upsert", keys.back());
    }
  }
  GlobalMetrics().index_entries_written += rows.size();
  tree_.UpsertRun(keys, std::move(rows),
                  [&](size_t i, std::optional<Row> old) {
                    if (!old.has_value()) {
                      if (added != nullptr) added->push_back(keys[i]);
                    } else if (replaced != nullptr) {
                      replaced->push_back(std::move(*old));
                    }
                  });
  return Status::OK();
}

Status Iot::DeleteSorted(const std::vector<CompositeKey>& keys,
                         std::vector<Row>* removed) {
  for (size_t i = 1; i < keys.size(); ++i) {
    if (CompareKeys(keys[i - 1], keys[i]) >= 0) {
      return UnsortedKeyError("delete", keys[i]);
    }
  }
  size_t done = tree_.ExtractRun(keys, [&](size_t, Row row) {
    if (removed != nullptr) removed->push_back(std::move(row));
  });
  GlobalMetrics().index_entries_written += done;
  if (done < keys.size()) return MissingKeyError(keys[done]);
  return Status::OK();
}

Status Iot::Delete(const CompositeKey& key) {
  if (!tree_.Erase(key)) return MissingKeyError(key);
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
      return UnsortedKeyError("bulk load", KeyOf(rows[i]));
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

Status Iot::UnsortedKeyError(const char* call, const CompositeKey& key) const {
  return Status::InvalidArgument(std::string(call) +
                                 " keys not strictly ascending at " +
                                 KeyToString(key) + " in IOT " + name_);
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
