#include "index/iot.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "common/metrics.h"

namespace exi {

namespace {

// A row's first `columns` values.
KeySpan LeadingKey(const Row& row, size_t columns) {
  return KeySpan(row).first(std::min(columns, row.size()));
}

}  // namespace

void SortByKey(std::vector<Row>* rows, size_t key_columns) {
  std::sort(rows->begin(), rows->end(),
            [key_columns](const Row& a, const Row& b) {
              return CompareKeys(LeadingKey(a, key_columns),
                                 LeadingKey(b, key_columns)) < 0;
            });
}

Status MergeEntryDiff(std::vector<Row> removed, std::vector<Row> added,
                      size_t key_columns, const std::string& table,
                      FunctionRef<Status(const std::vector<CompositeKey>&,
                                         RowMerge)> run) {
  SortByKey(&removed, key_columns);
  SortByKey(&added, key_columns);
  // The keys whose entry changes, each with whether it must be present
  // before the run and the row it holds after (nullptr: none).
  std::vector<CompositeKey> keys;
  std::vector<std::pair<bool, Row*>> steps;
  for (size_t r = 0, a = 0; r < removed.size() || a < added.size();) {
    Row* old_row = r < removed.size() ? &removed[r] : nullptr;
    Row* new_row = a < added.size() ? &added[a] : nullptr;
    // The lower key is removed (< 0), added (> 0) or both (0).
    const int c = old_row == nullptr ? 1
                  : new_row == nullptr
                      ? -1
                      : CompareKeys(LeadingKey(*old_row, key_columns),
                                    LeadingKey(*new_row, key_columns));
    r += c <= 0;
    a += c >= 0;
    if (c == 0 && CompareKeys(*old_row, *new_row) == 0) continue;
    KeySpan key = LeadingKey(c <= 0 ? *old_row : *new_row, key_columns);
    keys.emplace_back(key.begin(), key.end());
    steps.emplace_back(c <= 0, c >= 0 ? new_row : nullptr);
  }
  if (keys.empty()) return Status::OK();
  return run(keys, [&](size_t i, const Row* current)
                       -> Result<std::optional<Row>> {
    const auto [present, next] = steps[i];
    if (present != (current != nullptr)) {
      const std::string entry = KeyToString(keys[i]) + " in " + table;
      if (current != nullptr) {
        return Status::AlreadyExists("duplicate entry " + entry);
      }
      return Status::NotFound("no entry " + entry);
    }
    if (next == nullptr) return std::optional<Row>();
    return std::optional<Row>(std::move(*next));
  });
}

Iot::Iot(std::string name, Schema schema, size_t key_columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(key_columns),
      tree_(RowKey{key_columns}) {
  assert(key_columns_ > 0 && key_columns_ <= schema_.size());
}

Status Iot::MissingKeyError(KeySpan key) const {
  return Status::NotFound("no key " + KeyToString(key) + " in IOT " + name_);
}

Status Iot::WriteEntries(std::vector<Row> removed, std::vector<Row> added,
                         MergeUndo* undo) {
  return MergeEntryDiff(
      std::move(removed), std::move(added), key_columns_, name_,
      [&](const std::vector<CompositeKey>& keys, RowMerge merge) {
        return MergeSorted(keys, merge, undo);
      });
}

Status Iot::Insert(Row row, MergeUndo* undo) {
  return WriteEntries({}, {std::move(row)}, undo);
}

Status Iot::Delete(const CompositeKey& key, MergeUndo* undo) {
  return WriteEntries({key}, {}, undo);
}

Status Iot::MergeSorted(const std::vector<CompositeKey>& keys,
                        RowMerge merge, MergeUndo* undo) {
  for (size_t i = 1; i < keys.size(); ++i) {
    if (CompareKeys(keys[i - 1], keys[i]) >= 0) {
      return UnsortedKeyError("merge", keys[i]);
    }
  }
  Status status;
  tree_.MergeRun(
      keys.size(), [&](size_t i) { return KeySpan(keys[i]); },
      [&](size_t i, const Row* current, std::optional<Row>* next) {
        Result<std::optional<Row>> merged = merge(i, current);
        if (!merged.ok()) {
          status = merged.status();
          return false;
        }
        *next = std::move(*merged);
        if (!next->has_value()) return true;
        status = schema_.ValidateRow(**next);
        if (status.ok() && CompareKeys(KeyOf(**next), keys[i]) != 0) {
          status = Status::InvalidArgument(
              "merged row key " + KeyToString(KeyOf(**next)) +
              " differs from run key " + KeyToString(keys[i]) + " in IOT " +
              name_);
        }
        return status.ok();
      },
      [&](size_t i, std::optional<Row> old, const Row*) {
        GlobalMetrics().index_entries_written++;
        if (undo == nullptr) return;
        if (old.has_value()) {
          undo->replaced.push_back(std::move(*old));
        } else {
          undo->added.push_back(keys[i]);
        }
      });
  return status;
}

void Iot::Revert(MergeUndo undo) {
  // One run over both lists in key order: an added key is deleted, a
  // replaced key gets its old row back.
  std::vector<CompositeKey> keys;
  std::vector<Row*> rows;  // nullptr for an added key
  keys.reserve(undo.added.size() + undo.replaced.size());
  size_t a = 0;
  for (Row& row : undo.replaced) {
    KeySpan key = KeyOf(row);
    for (; a < undo.added.size() && CompareKeys(undo.added[a], key) < 0; ++a) {
      keys.push_back(std::move(undo.added[a]));
      rows.push_back(nullptr);
    }
    keys.emplace_back(key.begin(), key.end());
    rows.push_back(&row);
  }
  for (; a < undo.added.size(); ++a) {
    keys.push_back(std::move(undo.added[a]));
    rows.push_back(nullptr);
  }
  (void)MergeSorted(
      keys,
      [&rows](size_t i, const Row*) -> Result<std::optional<Row>> {
        if (rows[i] == nullptr) return std::optional<Row>();
        return std::optional<Row>(std::move(*rows[i]));
      },
      nullptr);
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
