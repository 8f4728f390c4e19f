#ifndef EXTIDX_CORE_ODCI_H_
#define EXTIDX_CORE_ODCI_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "common/status.h"
#include "index/iot.h"
#include "index/key.h"
#include "types/schema.h"
#include "types/value.h"

namespace exi {

// ---------------------------------------------------------------------------
// ODCIIndex: the paper's extensible indexing interface (§2.2.3).
//
// A cartridge developer implements this interface once per indexing scheme;
// the server invokes it implicitly on CREATE/ALTER/TRUNCATE/DROP INDEX, on
// DML against the base table, and during query execution when the optimizer
// selects a domain-index scan for an operator predicate.
// ---------------------------------------------------------------------------

// Metadata about the domain index, passed to every ODCIIndex routine
// (paper: "index name, table name, and names of the indexed columns and
// their data types, are passed in as arguments to all the ODCIIndex
// routines").
struct OdciIndexInfo {
  std::string index_name;
  std::string table_name;
  std::vector<std::string> column_names;
  std::vector<DataType> column_types;
  // Positions of the indexed columns within base-table rows, so index
  // routines can pick the indexed value out of rows handed to them by
  // ScanBaseTable during an index build.
  std::vector<int> column_positions;
  // The uninterpreted PARAMETERS string from CREATE/ALTER INDEX.
  std::string parameters;

  // Position of the (single) indexed column, or -1.
  int indexed_position() const {
    return column_positions.empty() ? -1 : column_positions[0];
  }
};

// Describes the operator predicate an index scan must evaluate:
//   op(column, args...) relop <value>
// normalized to a [lower, upper] bound on the operator's return value
// (§2.4.2: "predicates which can be represented by a range of lower and
// upper bounds on the operator return values").
struct OdciPredInfo {
  std::string operator_name;
  // Operator arguments after the indexed column (e.g. the keyword text for
  // Contains, the query geometry for Sdo_Relate).
  ValueList args;
  std::optional<Value> lower_bound;
  bool lower_inclusive = true;
  std::optional<Value> upper_bound;
  bool upper_inclusive = true;

  // Convenience for the common boolean form `op(...) = TRUE` (paper
  // footnote 1: Contains(...) = 1).
  static OdciPredInfo BooleanTrue(std::string op, ValueList args);
};

// Scan context shared across Start/Fetch/Close (§2.2.3).  Exactly one of
// the two mechanisms is used per scan:
//
//  * Return State: the (small) user state is serialized into `state` and
//    copied in and out of every routine invocation, modeling Oracle
//    passing the scan-context object type by value.
//  * Return Handle: the user state lives in a framework-owned workspace
//    (core/scan_context.h); only the 8-byte `handle` crosses the interface.
struct OdciScanContext {
  std::vector<uint8_t> state;  // Return State payload (may be empty)
  uint64_t handle = 0;         // Return Handle id (0 = none)

  bool uses_handle() const { return handle != 0; }
};

// One batch of results from ODCIIndexFetch.  An empty `rids` batch signals
// end-of-scan (the paper's "null row identifier").  A cartridge may also
// set `last` on a non-empty batch, the null rowid following the final rows
// in the same array: no rows follow it, so the server closes the scan
// without another Fetch.  Setting it is optional, and a Fetch after a
// `last` batch must still return an empty one.  `ancillary`, when
// non-empty, carries one auxiliary value per rid (e.g. a relevance score —
// the paper's ancillary operator data) and must be the same length as
// `rids`.
struct OdciFetchBatch {
  std::vector<RowId> rids;
  ValueList ancillary;
  bool last = false;

  bool end_of_scan() const { return rids.empty(); }
};

// Which class of ODCI routine is currently executing; determines which
// server callbacks are legal (§2.5 restrictions, enforced by ServerContext).
enum class CallbackMode {
  kNone,         // no ODCI routine active
  kDefinition,   // Create/Alter/Truncate/Drop: no restrictions
  kMaintenance,  // Insert/Update/Delete: no DDL, no base-table updates
  kScan,         // Start/Fetch/Close: read-only (query statements only)
};

const char* CallbackModeName(CallbackMode mode);

// ---------------------------------------------------------------------------
// ServerContext: the paper's "server callbacks".
//
// Index routines store their index data in ordinary database objects (heap
// tables, index-organized tables, LOBs) or external files, and access them
// through this interface.  Every in-database mutation made through the
// context is (a) checked against the active CallbackMode and (b) recorded
// in the enclosing transaction's undo log, which is how domain-index
// updates inherit "the same transactional boundaries as updates to the base
// table" (§2.5).  The external FileStore is deliberately exempt from both:
// that exemption is the §5 limitation reproduced by experiment E9.
// ---------------------------------------------------------------------------
class ServerContext {
 public:
  virtual ~ServerContext() = default;

  virtual CallbackMode mode() const = 0;

  // ---- index-organized tables (DDL requires kDefinition) ----
  virtual Status CreateIot(const std::string& name, Schema schema,
                           size_t key_columns) = 0;
  virtual Status DropIot(const std::string& name) = 0;
  virtual bool IotExists(const std::string& name) const = 0;
  virtual Status IotTruncate(const std::string& name) = 0;

  // ---- IOT DML (requires kDefinition or kMaintenance) ----
  virtual Status IotInsert(const std::string& name, Row row) = 0;
  virtual Status IotUpsert(const std::string& name, Row row) = 0;
  virtual Status IotDelete(const std::string& name,
                           const CompositeKey& key) = 0;

  // Sorted bulk load for index builds (requires kDefinition): fills the
  // empty IOT `name` with `rows`, whose primary keys must be strictly
  // ascending.  The server builds the B+-tree bottom-up with no per-row
  // lookup, and undo (when a transaction is open) empties the IOT again.
  // A non-empty IOT, unsorted or duplicate keys, or a row the schema
  // rejects fail the whole call and load nothing.  This default loops
  // IotInsert, so decorating contexts need not implement it.
  virtual Status IotBulkLoad(const std::string& name, std::vector<Row> rows) {
    for (Row& row : rows) EXI_RETURN_IF_ERROR(IotInsert(name, std::move(row)));
    return Status::OK();
  }

  // Read-modify-write of a sorted run (kDefinition or kMaintenance), for
  // multi-entry maintenance: `keys` strictly ascend, and for each key in
  // order `merge(i, current)` sees the row stored under keys[i] (nullptr
  // if none) and returns the row the key is to hold, whose primary key is
  // keys[i], or nullopt to hold none (a present row is deleted).  The
  // server walks the run along its held root-to-leaf B+-tree path: a key
  // past the held leaf re-descends from the lowest held node that covers
  // it, metering every node searched, so reading the current row costs no
  // extra descent.  It checks the mode and fires `callback/iot_merge` once
  // per run, before the run changes anything, and logs one undo entry per
  // run: the keys it added and the rows it replaced or deleted.  Unsorted
  // or duplicate keys fail the run before anything changes.  An error
  // returned by `merge`, or a row the schema rejects, ends the run there;
  // the keys changed before it are in its undo entry, so statement
  // rollback restores them.  This default loops IotGet / IotUpsert /
  // IotDelete, so decorating contexts need not implement it.
  virtual Status IotMergeSorted(const std::string& name,
                                const std::vector<CompositeKey>& keys,
                                RowMerge merge) {
    for (size_t i = 0; i < keys.size(); ++i) {
      Result<Row> current = IotGet(name, keys[i]);
      if (!current.ok() && current.status().code() != StatusCode::kNotFound) {
        return current.status();
      }
      EXI_ASSIGN_OR_RETURN(std::optional<Row> next,
                           merge(i, current.ok() ? &*current : nullptr));
      if (next.has_value()) {
        EXI_RETURN_IF_ERROR(IotUpsert(name, std::move(*next)));
      } else if (current.ok()) {
        EXI_RETURN_IF_ERROR(IotDelete(name, keys[i]));
      }
    }
    return Status::OK();
  }

  // ---- IOT queries (any mode) ----
  virtual Result<Row> IotGet(const std::string& name,
                             const CompositeKey& key) const = 0;
  // Visitors are FunctionRef (not std::function) so the per-scan setup on
  // these hot paths never heap-allocates; callers keep passing lambdas.
  virtual Status IotScanPrefix(
      const std::string& name, const CompositeKey& prefix,
      FunctionRef<bool(const Row&)> visit) const = 0;
  virtual Status IotScanRange(
      const std::string& name, const CompositeKey* lo, bool lo_inclusive,
      const CompositeKey* hi, bool hi_inclusive,
      FunctionRef<bool(const Row&)> visit) const = 0;
  virtual Result<uint64_t> IotRowCount(const std::string& name) const = 0;

  // ---- heap tables for index data (same mode rules as IOTs) ----
  virtual Status CreateIndexTable(const std::string& name, Schema schema) = 0;
  virtual Status DropIndexTable(const std::string& name) = 0;
  virtual bool IndexTableExists(const std::string& name) const = 0;
  virtual Status IndexTableTruncate(const std::string& name) = 0;
  virtual Result<RowId> IndexTableInsert(const std::string& name,
                                         Row row) = 0;
  virtual Status IndexTableDelete(const std::string& name, RowId rid) = 0;
  virtual Status IndexTableScan(
      const std::string& name,
      FunctionRef<bool(RowId, const Row&)> visit) const = 0;

  // ---- LOBs (create requires kDefinition; writes kDefinition or
  //      kMaintenance; reads any mode) ----
  virtual Result<LobId> CreateLob() = 0;
  virtual Status DropLob(LobId id) = 0;
  virtual Status WriteLob(LobId id, uint64_t offset,
                          const std::vector<uint8_t>& data) = 0;
  virtual Status AppendLob(LobId id, const std::vector<uint8_t>& data) = 0;
  virtual Result<std::vector<uint8_t>> ReadLob(LobId id, uint64_t offset,
                                               uint64_t len) const = 0;
  virtual Result<std::vector<uint8_t>> ReadLobAll(LobId id) const = 0;
  virtual Result<uint64_t> LobSize(LobId id) const = 0;

  // ---- external file storage (§5: outside the database, unguarded and
  //      NOT transactional) ----
  virtual Result<class FileStore*> ExternalFiles(
      const std::string& store_name) = 0;

  // ---- base-table access for index builds (read-only; the definition
  //      routine scans the base table to build the initial index) ----
  virtual Status ScanBaseTable(
      const std::string& table_name,
      const std::function<bool(RowId, const Row&)>& visit) const = 0;

  // Point fetch of a base-table row (read-only; used by two-phase filters
  // that re-check candidates against the exact column value, e.g. the
  // spatial exact-relate phase, §3.2.2).
  virtual Result<Row> GetBaseTableRow(const std::string& table_name,
                                      RowId rid) const = 0;
};

// Concurrency capabilities a cartridge declares to the framework
// (DESIGN.md §5).  All default off: a cartridge that says nothing gets the
// exact pre-parallelism serial behavior.
struct OdciCapabilities {
  // No longer read by the engine: every index slice is built by one
  // serial Create().  Kept so cartridges that still set it compile.
  bool parallel_build = false;

  // Start/Fetch/Close touch only per-scan state (the OdciScanContext /
  // its workspace) plus read-only server callbacks, so distinct scans of
  // the same index may run concurrently on pool threads.  The engine uses
  // it for one thing: concurrent domain-index join probes.  Plain index
  // scans are serial at every parallelism.  Per §2.2.3 the scan context is
  // already per-scan; this flag additionally promises no mutable globals
  // or non-atomic shared counters in the scan path.
  bool parallel_scan = false;
};

// ---------------------------------------------------------------------------
// OdciIndex: one instance manages one domain index.
// ---------------------------------------------------------------------------
class OdciIndex {
 public:
  virtual ~OdciIndex() = default;

  // What the framework may parallelize for this cartridge.
  virtual OdciCapabilities Capabilities() const { return {}; }

  // Short stable label identifying the cartridge in observability output
  // (the `cartridge` column of V$ODCI_CALLS, bench JSON).  One label per
  // implementation class, not per index: "text", "spatial_tile", ...
  virtual const char* TraceLabel() const { return "custom"; }

  // ---- index definition (§2.2.3 "ODCIIndex definition methods") ----
  // A failed Create need not clean up after itself: the engine follows
  // every failed attempt with Drop, which must tolerate partial storage,
  // before it retries a transient failure.
  virtual Status Create(const OdciIndexInfo& info, ServerContext& ctx) = 0;

  // Storage-only half of Create, from a retired split-build protocol.  The
  // engine no longer calls it; it stays so cartridges that override it
  // compile.
  virtual Status CreateStorage(const OdciIndexInfo& info,
                               ServerContext& ctx) {
    (void)info;
    (void)ctx;
    return Status::NotSupported("cartridge has no split build protocol");
  }
  virtual Status Alter(const OdciIndexInfo& info, ServerContext& ctx) = 0;
  virtual Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) = 0;
  virtual Status Drop(const OdciIndexInfo& info, ServerContext& ctx) = 0;

  // ---- index maintenance (§2.2.3 "ODCIIndex maintenance methods") ----
  virtual Status Insert(const OdciIndexInfo& info, RowId rid,
                        const Value& new_value, ServerContext& ctx) = 0;
  virtual Status Delete(const OdciIndexInfo& info, RowId rid,
                        const Value& old_value, ServerContext& ctx) = 0;
  virtual Status Update(const OdciIndexInfo& info, RowId rid,
                        const Value& old_value, const Value& new_value,
                        ServerContext& ctx) = 0;

  // ---- array maintenance ----
  // The engine maintains each index slice with one of these calls per DML
  // statement and kind, carrying every row the statement routed to the
  // slice in statement order (one row for a single-row statement);
  // values[i] belongs to rids[i].  They are traced and fault-injected as
  // ODCIIndexInsert / ODCIIndexDelete / ODCIIndexUpdate, and a failed
  // attempt's in-database writes are rolled back before a retry.  These
  // defaults loop the per-row routines; override them when a run of rows
  // is cheaper than its rows one at a time.
  virtual Status BatchInsert(const OdciIndexInfo& info,
                             const std::vector<RowId>& rids,
                             const ValueList& new_values, ServerContext& ctx) {
    for (size_t i = 0; i < rids.size(); ++i) {
      EXI_RETURN_IF_ERROR(Insert(info, rids[i], new_values[i], ctx));
    }
    return Status::OK();
  }
  virtual Status BatchDelete(const OdciIndexInfo& info,
                             const std::vector<RowId>& rids,
                             const ValueList& old_values, ServerContext& ctx) {
    for (size_t i = 0; i < rids.size(); ++i) {
      EXI_RETURN_IF_ERROR(Delete(info, rids[i], old_values[i], ctx));
    }
    return Status::OK();
  }
  virtual Status BatchUpdate(const OdciIndexInfo& info,
                             const std::vector<RowId>& rids,
                             const ValueList& old_values,
                             const ValueList& new_values, ServerContext& ctx) {
    for (size_t i = 0; i < rids.size(); ++i) {
      EXI_RETURN_IF_ERROR(
          Update(info, rids[i], old_values[i], new_values[i], ctx));
    }
    return Status::OK();
  }

  // ---- index scan (§2.2.3 "ODCIIndex scan methods") ----
  virtual Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                        const OdciPredInfo& pred,
                                        ServerContext& ctx) = 0;
  // Appends up to `max_rows` row ids to `out`; an empty batch, or one with
  // `last` set, means the scan is exhausted.
  virtual Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
                       size_t max_rows, OdciFetchBatch* out,
                       ServerContext& ctx) = 0;
  virtual Status Close(const OdciIndexInfo& info, OdciScanContext& sctx,
                       ServerContext& ctx) = 0;
};

// ---------------------------------------------------------------------------
// OdciStats: optimizer extensibility (§2.4.2, [ODC99]).  Supplied by the
// indextype so the cost-based optimizer can price a domain-index scan
// against other access paths.
// ---------------------------------------------------------------------------
class OdciStats {
 public:
  virtual ~OdciStats() = default;

  // Called once per index slice the plan would scan; `info.index_name`
  // names the slice and `table_rows` is the row count of its heap segment
  // (the whole table for an unpartitioned one).  Returns the fraction of
  // those rows expected to satisfy the predicate, in [0, 1].  The engine
  // reuses the answer until the slice changes.
  virtual Result<double> Selectivity(const OdciIndexInfo& info,
                                     const OdciPredInfo& pred,
                                     uint64_t table_rows,
                                     ServerContext& ctx) = 0;

  // Abstract cost of scanning the slice (same unit as the engine cost
  // model: one unit ~ one row/page touch); `selectivity` is this slice's
  // Selectivity answer and `table_rows` its row count, as above.
  virtual Result<double> IndexCost(const OdciIndexInfo& info,
                                   const OdciPredInfo& pred,
                                   double selectivity, uint64_t table_rows,
                                   ServerContext& ctx) = 0;
};

}  // namespace exi

#endif  // EXTIDX_CORE_ODCI_H_
