#ifndef EXTIDX_CORE_CALLBACK_GUARD_H_
#define EXTIDX_CORE_CALLBACK_GUARD_H_

#include <string>

#include "catalog/catalog.h"
#include "core/odci.h"
#include "txn/transaction.h"

namespace exi {

// Concrete ServerContext: routes every cartridge storage callback through
// the catalog, enforcing the §2.5 restrictions per CallbackMode and logging
// undo actions into the active transaction so in-database index data rolls
// back with the base table.
//
//   definition   — everything allowed (paper: "no restrictions on the index
//                  definition routines"); DDL effects are not undone on
//                  rollback because DDL commits (Oracle semantics).
//   maintenance  — DML on index data allowed, DDL rejected
//                  (CallbackViolation).
//   scan         — read-only; any mutation rejected (paper: "index scan
//                  routines can only execute SQL query statements").
//
// External file stores bypass both the guard and the undo log: that gap is
// the §5 limitation, remedied only by database events (txn/events.h).
class GuardedServerContext : public ServerContext {
 public:
  // `txn` may be null (no transaction => no undo logging, used by
  // benchmarks that measure raw index cost).
  GuardedServerContext(Catalog* catalog, Transaction* txn, CallbackMode mode)
      : catalog_(catalog), txn_(txn), mode_(mode) {}

  CallbackMode mode() const override { return mode_; }
  void set_mode(CallbackMode mode) { mode_ = mode; }
  void set_transaction(Transaction* txn) { txn_ = txn; }

  // Restricts ScanBaseTable to one heap segment, so a LOCAL slice's build
  // and scans see only its partition's rows while the cartridge keeps
  // scanning "the table" as usual (DESIGN.md §7).
  void RestrictBaseScanToSegment(uint32_t segment) {
    base_scan_segment_ = segment;
    base_scan_restricted_ = true;
  }

  // ---- IOT DDL ----
  Status CreateIot(const std::string& name, Schema schema,
                   size_t key_columns) override;
  Status DropIot(const std::string& name) override;
  bool IotExists(const std::string& name) const override;
  Status IotTruncate(const std::string& name) override;

  // ---- IOT DML ----
  Status IotInsert(const std::string& name, Row row) override;
  Status IotUpsert(const std::string& name, Row row) override;
  Status IotDelete(const std::string& name, const CompositeKey& key) override;
  Status IotBulkLoad(const std::string& name, std::vector<Row> rows) override;
  Status IotMergeSorted(const std::string& name,
                        const std::vector<CompositeKey>& keys,
                        RowMerge merge) override;

  // ---- IOT queries ----
  Result<Row> IotGet(const std::string& name,
                     const CompositeKey& key) const override;
  Status IotScanPrefix(const std::string& name, const CompositeKey& prefix,
                       FunctionRef<bool(const Row&)> visit) const override;
  Status IotScanRange(const std::string& name, const CompositeKey* lo,
                      bool lo_inclusive, const CompositeKey* hi,
                      bool hi_inclusive,
                      FunctionRef<bool(const Row&)> visit) const override;
  Result<uint64_t> IotRowCount(const std::string& name) const override;

  // ---- index-data heap tables ----
  Status CreateIndexTable(const std::string& name, Schema schema) override;
  Status DropIndexTable(const std::string& name) override;
  bool IndexTableExists(const std::string& name) const override;
  Status IndexTableTruncate(const std::string& name) override;
  Result<RowId> IndexTableInsert(const std::string& name, Row row) override;
  Status IndexTableDelete(const std::string& name, RowId rid) override;
  Status IndexTableScan(
      const std::string& name,
      FunctionRef<bool(RowId, const Row&)> visit) const override;

  // ---- LOBs ----
  Result<LobId> CreateLob() override;
  Status DropLob(LobId id) override;
  Status WriteLob(LobId id, uint64_t offset,
                  const std::vector<uint8_t>& data) override;
  Status AppendLob(LobId id, const std::vector<uint8_t>& data) override;
  Result<std::vector<uint8_t>> ReadLob(LobId id, uint64_t offset,
                                       uint64_t len) const override;
  Result<std::vector<uint8_t>> ReadLobAll(LobId id) const override;
  Result<uint64_t> LobSize(LobId id) const override;

  // ---- external files (§5: unguarded, non-transactional) ----
  Result<FileStore*> ExternalFiles(const std::string& store_name) override;

  // ---- base table (read-only) ----
  Status ScanBaseTable(
      const std::string& table_name,
      const std::function<bool(RowId, const Row&)>& visit) const override;
  Result<Row> GetBaseTableRow(const std::string& table_name,
                              RowId rid) const override;

 private:
  Status RequireDdl(const char* what) const;
  Status RequireDml(const char* what) const;
  // The one path behind the four IOT write callbacks (IotInsert,
  // IotUpsert and IotDelete are one-key runs): the DML-mode check for
  // `call`, the `fail_point`, the IOT lookup, then `write`, a merge run on
  // the IOT, whose undo is logged as one entry, also when an error ended
  // the run part way.
  Status WriteIot(const char* call, const char* fail_point,
                  const std::string& name,
                  FunctionRef<Status(Iot&, Iot::MergeUndo*)> write);
  // Snapshots a LOB on first touch within the transaction.
  Status SnapshotLobForUndo(LobId id);

  Catalog* catalog_;
  Transaction* txn_;
  CallbackMode mode_;
  bool base_scan_restricted_ = false;
  uint32_t base_scan_segment_ = 0;
};

}  // namespace exi

#endif  // EXTIDX_CORE_CALLBACK_GUARD_H_
