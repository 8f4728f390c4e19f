#include "core/callback_guard.h"

#include "common/failpoint.h"
#include "common/metrics.h"

namespace exi {

Status GuardedServerContext::RequireDdl(const char* what) const {
  if (mode_ == CallbackMode::kDefinition || mode_ == CallbackMode::kNone) {
    return Status::OK();
  }
  return Status::CallbackViolation(
      std::string(what) + " is a DDL callback; not allowed in " +
      CallbackModeName(mode_) + " routines");
}

Status GuardedServerContext::RequireDml(const char* what) const {
  if (mode_ == CallbackMode::kScan) {
    return Status::CallbackViolation(
        std::string(what) +
        " mutates index data; scan routines may only execute queries");
  }
  return Status::OK();
}

// ---- IOT DDL ----

Status GuardedServerContext::CreateIot(const std::string& name, Schema schema,
                                       size_t key_columns) {
  EXI_RETURN_IF_ERROR(RequireDdl("CreateIot"));
  return catalog_->CreateIot(name, std::move(schema), key_columns);
}

Status GuardedServerContext::DropIot(const std::string& name) {
  EXI_RETURN_IF_ERROR(RequireDdl("DropIot"));
  return catalog_->DropIot(name);
}

bool GuardedServerContext::IotExists(const std::string& name) const {
  return catalog_->IotExists(name);
}

Status GuardedServerContext::IotTruncate(const std::string& name) {
  EXI_RETURN_IF_ERROR(RequireDdl("IotTruncate"));
  EXI_ASSIGN_OR_RETURN(Iot * iot, catalog_->GetIot(name));
  iot->Truncate();
  return Status::OK();
}

// ---- IOT DML ----

Status GuardedServerContext::WriteIot(
    const char* call, const char* fail_point, const std::string& name,
    FunctionRef<Status(Iot&, Iot::MergeUndo*)> write) {
  EXI_RETURN_IF_ERROR(RequireDml(call));
  EXI_RETURN_IF_ERROR(FailPointRegistry::Global().Fire(fail_point));
  EXI_ASSIGN_OR_RETURN(Iot * iot, catalog_->GetIot(name));
  if (txn_ == nullptr) return write(*iot, nullptr);
  Iot::MergeUndo undo;
  Status s = write(*iot, &undo);
  txn_->PushRevert(iot, std::move(undo));
  return s;
}

Status GuardedServerContext::IotInsert(const std::string& name, Row row) {
  return WriteIot("IotInsert", "callback/iot_insert", name,
                  [&row](Iot& iot, Iot::MergeUndo* undo) {
                    return iot.Insert(std::move(row), undo);
                  });
}

Status GuardedServerContext::IotUpsert(const std::string& name, Row row) {
  return WriteIot(
      "IotUpsert", "callback/iot_upsert", name,
      [&row](Iot& iot, Iot::MergeUndo* undo) {
        KeySpan key = iot.KeyOf(row);
        return iot.MergeSorted(
            {CompositeKey(key.begin(), key.end())},
            [&row](size_t, const Row*) -> Result<std::optional<Row>> {
              return std::optional<Row>(std::move(row));
            },
            undo);
      });
}

Status GuardedServerContext::IotDelete(const std::string& name,
                                       const CompositeKey& key) {
  return WriteIot("IotDelete", "callback/iot_delete", name,
                  [&key](Iot& iot, Iot::MergeUndo* undo) {
                    return iot.Delete(key, undo);
                  });
}

Status GuardedServerContext::IotMergeSorted(
    const std::string& name, const std::vector<CompositeKey>& keys,
    RowMerge merge) {
  return WriteIot("IotMergeSorted", "callback/iot_merge", name,
                  [&](Iot& iot, Iot::MergeUndo* undo) {
                    return iot.MergeSorted(keys, merge, undo);
                  });
}

Status GuardedServerContext::IotBulkLoad(const std::string& name,
                                         std::vector<Row> rows) {
  EXI_RETURN_IF_ERROR(RequireDdl("IotBulkLoad"));
  EXI_RETURN_IF_ERROR(
      FailPointRegistry::Global().Fire("callback/iot_bulk_load"));
  EXI_ASSIGN_OR_RETURN(Iot * iot, catalog_->GetIot(name));
  EXI_RETURN_IF_ERROR(iot->BulkLoad(std::move(rows)));
  if (txn_ != nullptr) txn_->PushUndo([iot] { iot->Truncate(); });
  return Status::OK();
}

// ---- IOT queries ----

Result<Row> GuardedServerContext::IotGet(const std::string& name,
                                         const CompositeKey& key) const {
  EXI_ASSIGN_OR_RETURN(const Iot* iot,
                       static_cast<const Catalog*>(catalog_)->GetIot(name));
  return iot->Get(key);
}

Status GuardedServerContext::IotScanPrefix(
    const std::string& name, const CompositeKey& prefix,
    FunctionRef<bool(const Row&)> visit) const {
  EXI_ASSIGN_OR_RETURN(const Iot* iot,
                       static_cast<const Catalog*>(catalog_)->GetIot(name));
  iot->ScanPrefix(prefix, visit);
  return Status::OK();
}

Status GuardedServerContext::IotScanRange(
    const std::string& name, const CompositeKey* lo, bool lo_inclusive,
    const CompositeKey* hi, bool hi_inclusive,
    FunctionRef<bool(const Row&)> visit) const {
  EXI_ASSIGN_OR_RETURN(const Iot* iot,
                       static_cast<const Catalog*>(catalog_)->GetIot(name));
  iot->ScanRange(lo, lo_inclusive, hi, hi_inclusive, visit);
  return Status::OK();
}

Result<uint64_t> GuardedServerContext::IotRowCount(
    const std::string& name) const {
  EXI_ASSIGN_OR_RETURN(const Iot* iot,
                       static_cast<const Catalog*>(catalog_)->GetIot(name));
  return iot->row_count();
}

// ---- index-data heap tables ----

Status GuardedServerContext::CreateIndexTable(const std::string& name,
                                              Schema schema) {
  EXI_RETURN_IF_ERROR(RequireDdl("CreateIndexTable"));
  return catalog_->CreateIndexTable(name, std::move(schema));
}

Status GuardedServerContext::DropIndexTable(const std::string& name) {
  EXI_RETURN_IF_ERROR(RequireDdl("DropIndexTable"));
  return catalog_->DropIndexTable(name);
}

bool GuardedServerContext::IndexTableExists(const std::string& name) const {
  return catalog_->IndexTableExists(name);
}

Status GuardedServerContext::IndexTableTruncate(const std::string& name) {
  EXI_RETURN_IF_ERROR(RequireDdl("IndexTableTruncate"));
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetIndexTable(name));
  table->Truncate();
  return Status::OK();
}

Result<RowId> GuardedServerContext::IndexTableInsert(const std::string& name,
                                                     Row row) {
  EXI_RETURN_IF_ERROR(RequireDml("IndexTableInsert"));
  EXI_RETURN_IF_ERROR(
      FailPointRegistry::Global().Fire("callback/index_table_insert"));
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetIndexTable(name));
  EXI_ASSIGN_OR_RETURN(RowId rid, table->Insert(std::move(row)));
  if (txn_ != nullptr) {
    txn_->PushUndo([table, rid] { (void)table->Delete(rid); });
  }
  return rid;
}

Status GuardedServerContext::IndexTableDelete(const std::string& name,
                                              RowId rid) {
  EXI_RETURN_IF_ERROR(RequireDml("IndexTableDelete"));
  EXI_RETURN_IF_ERROR(
      FailPointRegistry::Global().Fire("callback/index_table_delete"));
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetIndexTable(name));
  EXI_ASSIGN_OR_RETURN(Row old_row, table->Get(rid));
  EXI_RETURN_IF_ERROR(table->Delete(rid));
  if (txn_ != nullptr) {
    txn_->PushUndo(
        [table, rid, old_row] { (void)table->Resurrect(rid, old_row); });
  }
  return Status::OK();
}

Status GuardedServerContext::IndexTableScan(
    const std::string& name,
    FunctionRef<bool(RowId, const Row&)> visit) const {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetIndexTable(name));
  for (auto it = table->Scan(); it.Valid(); it.Next()) {
    if (!visit(it.row_id(), it.row())) break;
  }
  return Status::OK();
}

// ---- LOBs ----

Status GuardedServerContext::SnapshotLobForUndo(LobId id) {
  if (txn_ == nullptr || !txn_->MarkLobTouched(id)) return Status::OK();
  LobStore* lobs = &catalog_->lobs();
  // O(#chunks) pointer copy: chunks stay shared with the live LOB until a
  // write diverges them (copy-on-write in LobStore).
  EXI_ASSIGN_OR_RETURN(LobStore::LobSnapshot snapshot, lobs->Snapshot(id));
  txn_->PushUndo([txn = txn_, lobs, id, snapshot] {
    if (lobs->Exists(id)) (void)lobs->Restore(id, snapshot);
    txn->ForgetLobTouched(id);
  });
  return Status::OK();
}

Result<LobId> GuardedServerContext::CreateLob() {
  EXI_RETURN_IF_ERROR(RequireDml("CreateLob"));
  LobId id = catalog_->lobs().Create();
  if (txn_ != nullptr) {
    LobStore* lobs = &catalog_->lobs();
    txn_->PushUndo([lobs, id] { lobs->Drop(id); });
  }
  return id;
}

Status GuardedServerContext::DropLob(LobId id) {
  EXI_RETURN_IF_ERROR(RequireDml("DropLob"));
  EXI_RETURN_IF_ERROR(SnapshotLobForUndo(id));
  catalog_->lobs().Drop(id);
  if (txn_ != nullptr) {
    // Undo of a drop: re-create the LOB id with its old contents.  The
    // snapshot pushed above restores contents only if the LOB exists, so
    // push a resurrect action that runs after (i.e. is pushed before) it.
    // Simplest correct order: push resurrect now; snapshot already pushed.
    LobStore* lobs = &catalog_->lobs();
    txn_->PushUndo([lobs, id] {
      if (!lobs->Exists(id)) (void)lobs->Restore(id, {});
    });
  }
  return Status::OK();
}

Status GuardedServerContext::WriteLob(LobId id, uint64_t offset,
                                      const std::vector<uint8_t>& data) {
  EXI_RETURN_IF_ERROR(RequireDml("WriteLob"));
  EXI_RETURN_IF_ERROR(FailPointRegistry::Global().Fire("callback/lob_write"));
  EXI_RETURN_IF_ERROR(SnapshotLobForUndo(id));
  return catalog_->lobs().Write(id, offset, data);
}

Status GuardedServerContext::AppendLob(LobId id,
                                       const std::vector<uint8_t>& data) {
  EXI_RETURN_IF_ERROR(RequireDml("AppendLob"));
  EXI_RETURN_IF_ERROR(FailPointRegistry::Global().Fire("callback/lob_append"));
  EXI_RETURN_IF_ERROR(SnapshotLobForUndo(id));
  return catalog_->lobs().Append(id, data);
}

Result<std::vector<uint8_t>> GuardedServerContext::ReadLob(
    LobId id, uint64_t offset, uint64_t len) const {
  return catalog_->lobs().Read(id, offset, len);
}

Result<std::vector<uint8_t>> GuardedServerContext::ReadLobAll(
    LobId id) const {
  return catalog_->lobs().ReadAll(id);
}

Result<uint64_t> GuardedServerContext::LobSize(LobId id) const {
  return catalog_->lobs().Size(id);
}

// ---- external files ----

Result<FileStore*> GuardedServerContext::ExternalFiles(
    const std::string& store_name) {
  // Deliberately no mode check and no undo logging: external stores sit
  // outside the server's transactional control (§5).
  return catalog_->GetOrCreateFileStore(store_name);
}

// ---- base table ----

Status GuardedServerContext::ScanBaseTable(
    const std::string& table_name,
    const std::function<bool(RowId, const Row&)>& visit) const {
  EXI_RETURN_IF_ERROR(FailPointRegistry::Global().Fire("callback/base_scan"));
  EXI_ASSIGN_OR_RETURN(const HeapTable* table,
                       static_cast<const Catalog*>(catalog_)
                           ->GetTable(table_name));
  auto it = base_scan_restricted_ ? table->ScanSegment(base_scan_segment_)
                                  : table->Scan();
  uint64_t visited = 0;
  for (; it.Valid(); it.Next()) {
    ++visited;
    if (!visit(it.row_id(), it.row())) break;
  }
  GlobalMetrics().table_rows_read += visited;
  return Status::OK();
}

Result<Row> GuardedServerContext::GetBaseTableRow(
    const std::string& table_name, RowId rid) const {
  EXI_ASSIGN_OR_RETURN(const HeapTable* table,
                       static_cast<const Catalog*>(catalog_)
                           ->GetTable(table_name));
  return table->Get(rid);
}

}  // namespace exi
