#include "index/iot.h"

#include <cassert>
#include <optional>

#include "common/metrics.h"

namespace exi {

Iot::Iot(std::string name, Schema schema, size_t key_columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(key_columns),
      tree_(RowKey{key_columns}) {
  assert(key_columns_ > 0 && key_columns_ <= schema_.size());
}

Status Iot::DuplicateKeyError(KeySpan key) const {
  return Status::AlreadyExists("duplicate key " + KeyToString(key) +
                               " in IOT " + name_);
}

Status Iot::MissingKeyError(KeySpan key) const {
  return Status::NotFound("no key " + KeyToString(key) + " in IOT " + name_);
}

Status Iot::Insert(Row row) {
  EXI_RETURN_IF_ERROR(schema_.ValidateRow(row));
  KeySpan key = KeyOf(row);
  if (tree_.Find(key) != nullptr) return DuplicateKeyError(key);
  tree_.GetOrInsert(key, [&] { return std::move(row); });
  GlobalMetrics().index_entries_written++;
  return Status::OK();
}

Status Iot::UpsertSorted(std::vector<Row> rows,
                         std::vector<CompositeKey>* added,
                         std::vector<Row>* replaced) {
  for (size_t i = 0; i < rows.size(); ++i) {
    EXI_RETURN_IF_ERROR(schema_.ValidateRow(rows[i]));
    if (i > 0 && CompareKeys(KeyOf(rows[i - 1]), KeyOf(rows[i])) >= 0) {
      return UnsortedKeyError("upsert", KeyOf(rows[i]));
    }
  }
  GlobalMetrics().index_entries_written += rows.size();
  tree_.UpsertRun(std::move(rows),
                  [&](const Row& stored, std::optional<Row> old) {
                    if (!old.has_value()) {
                      if (added == nullptr) return;
                      KeySpan key = KeyOf(stored);
                      added->emplace_back(key.begin(), key.end());
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
    if (i > 0 && CompareKeys(KeyOf(rows[i - 1]), KeyOf(rows[i])) >= 0) {
      return UnsortedKeyError("bulk load", KeyOf(rows[i]));
    }
  }
  GlobalMetrics().index_entries_written += rows.size();
  auto row = rows.begin();
  tree_.BulkLoad(rows.size(), [&] { return std::move(*row++); });
  return Status::OK();
}

Status Iot::UnsortedKeyError(const char* call, KeySpan key) const {
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
    KeySpan key = it.key();
    if (key.size() < prefix.size() ||
        CompareKeys(key.first(prefix.size()), prefix) != 0) {
      break;
    }
    if (!visit(it.entry())) break;
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
    if (!visit(it.entry())) break;
  }
}

}  // namespace exi
