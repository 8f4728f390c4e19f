#ifndef EXTIDX_CORE_DOMAIN_INDEX_H_
#define EXTIDX_CORE_DOMAIN_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/function_ref.h"
#include "core/callback_guard.h"
#include "core/odci.h"
#include "txn/transaction.h"

namespace exi {

// What happens when a domain index's maintenance dispatch still fails after
// the retry guard gives up (docs/fault-tolerance.md):
//   kStrict   — the DML statement fails and rolls back (historic behavior).
//   kDeferred — the DML commits; the slice owning the row is marked
//               FAILED and the planner stops using it until
//               ALTER INDEX ... REBUILD.
// Session knob: SET INDEX_MAINTENANCE = STRICT | DEFERRED.
enum class IndexMaintenancePolicy { kStrict, kDeferred };

// Retry/backoff policy for the ODCI call guard.  Transient statuses
// (IoError, Busy) are re-attempted with capped exponential backoff until
// either max_attempts is reached or the next backoff would cross the
// per-call deadline (which bumps odci_call_timeouts).
struct OdciRetryPolicy {
  int max_attempts = 3;                // total attempts, including the first
  uint64_t initial_backoff_us = 200;   // sleep before the first re-attempt
  uint64_t max_backoff_us = 10000;     // backoff cap (multiplier is 4x)
  uint64_t call_deadline_us = 500000;  // budget for one logical ODCI call
};

// DomainIndexManager is the server side of the extensible indexing
// framework (§2.4): it invokes user-supplied ODCIIndex routines at the
// right moments — index DDL, implicit maintenance on base-table DML, and
// index scans during query execution — under the correct CallbackMode.
class DomainIndexManager {
 public:
  explicit DomainIndexManager(Catalog* catalog) : catalog_(catalog) {}

  // ---- concurrency (DESIGN.md §5) ----

  // True when `index_name` names a domain index whose cartridge declares
  // the parallel_scan capability (concurrent Start/Fetch/Close are safe).
  bool ScanIsParallelSafe(const std::string& index_name);

  // ---- fault tolerance (docs/fault-tolerance.md) ----

  void set_retry_policy(const OdciRetryPolicy& policy) {
    retry_policy_ = policy;
  }
  const OdciRetryPolicy& retry_policy() const { return retry_policy_; }

  void set_maintenance_policy(IndexMaintenancePolicy policy) {
    maintenance_policy_ = policy;
  }
  IndexMaintenancePolicy maintenance_policy() const {
    return maintenance_policy_;
  }

  // ALTER INDEX <name> REBUILD [PARTITION <p>]: for every slice (or the
  // one over partition <p>), marks it IN_PROGRESS, best-effort drops the
  // stale storage, then runs the CREATE INDEX build (BuildSlice) into the
  // same slot.  Returns each slice to VALID; a failing rebuild drops its
  // partial storage and leaves the slice UNUSABLE.  Legal from any state.
  Status RebuildIndex(const std::string& index_name,
                      const std::string& partition_name, Transaction* txn);

  DomainIndexManager(const DomainIndexManager&) = delete;
  DomainIndexManager& operator=(const DomainIndexManager&) = delete;

  // ---- DDL (§2.4.1) ----

  // CREATE INDEX ... INDEXTYPE IS <indextype> PARAMETERS ('<params>').
  // Validates indextype support for the column type, builds one slice per
  // partition of the table (one whole-table slice if unpartitioned) via
  // ODCIIndexCreate, and registers the index in the dictionary.
  Status CreateIndex(const std::string& index_name,
                     const std::string& table_name,
                     const std::string& column_name,
                     const std::string& indextype_name,
                     const std::string& parameters, Transaction* txn);

  // ALTER INDEX ... PARAMETERS ('<params>') — invokes ODCIIndexAlter.
  Status AlterIndex(const std::string& index_name,
                    const std::string& parameters, Transaction* txn);

  // DROP INDEX — invokes ODCIIndexDrop and removes dictionary entries.
  Status DropIndex(const std::string& index_name, Transaction* txn);

  // TRUNCATE TABLE propagates to domain indexes via ODCIIndexTruncate.
  Status TruncateIndex(const std::string& index_name, Transaction* txn);

  // ---- partition DDL (LOCAL domain indexes, DESIGN.md §7) ----
  //
  // On a partitioned table every domain index is LOCAL: one slice per
  // partition, so partition-level DDL maps to one O(1) ODCI call per index
  // instead of per-row maintenance.

  // ALTER TABLE ... ADD PARTITION: creates (and backfills, restricted to
  // the new segment) a slice of every domain index on the table.  On
  // failure, slices created by this call are dropped before returning.
  Status AddPartitionIndexes(const std::string& table_name,
                             const PartitionDef& part, Transaction* txn);

  // DROP PARTITION: ODCIIndexDrop of each index's slice over the
  // partition — zero per-row ODCIIndexDelete calls.
  Status DropPartitionIndexes(const std::string& table_name,
                              const PartitionDef& part, Transaction* txn);

  // TRUNCATE PARTITION: ODCIIndexTruncate of each index's slice.
  Status TruncatePartitionIndexes(const std::string& table_name,
                                  const PartitionDef& part, Transaction* txn);

  // ---- implicit maintenance (§2.4.1) ----

  enum class Maintenance { kInsert, kDelete, kUpdate };

  // Invoked by the DML executor with every row a statement touched, in
  // statement order (a single-row statement passes a one-row batch): the
  // inserted rows, or the old rows of a delete or update.  For kUpdate,
  // (*new_rows)[i] replaces rows[i].second for rowid rows[i].first; the
  // other kinds pass nullptr.  Groups the rows by owning slice of every
  // domain index on the table, forgets each receiving slice's memoized
  // statistics, skips non-VALID slices, gives each touched slice one
  // ODCIIndexInsert / Delete / Update call carrying all of its rows
  // (Dispatch), and applies MaintenanceFailed.
  Status Maintain(Maintenance kind, const std::string& table_name,
                  const std::vector<std::pair<RowId, Row>>& rows,
                  const std::vector<Row>* new_rows, Transaction* txn);

  // ---- index scan (§2.4.2) ----

  // A live domain-index scan: Start has run; NextBatch drives Fetch; Close
  // must run exactly once (the destructor closes as a backstop).
  class Scan {
   public:
    ~Scan();

    Scan(Scan&&) = delete;
    Scan& operator=(Scan&&) = delete;

    // Fetches the next batch (at most `max_rows`).  An empty batch, or one
    // with `last` set, means end of scan.  Return State contexts are copied
    // in and out per call, modeling Oracle's by-value scan-context passing.
    Status NextBatch(size_t max_rows, OdciFetchBatch* out);

    Status Close();

   private:
    friend class DomainIndexManager;
    Scan(IndexInfo* index, OdciIndex* impl, OdciIndexInfo info,
         std::unique_ptr<GuardedServerContext> ctx, OdciScanContext sctx)
        : index_(index),
          impl_(impl),
          info_(std::move(info)),
          ctx_(std::move(ctx)),
          sctx_(std::move(sctx)) {}

    IndexInfo* index_;
    OdciIndex* impl_;  // the scanned slice's implementation
    OdciIndexInfo info_;
    std::unique_ptr<GuardedServerContext> ctx_;
    OdciScanContext sctx_;
    bool closed_ = false;
  };

  // Opens a scan evaluating `pred` against the slice of domain index
  // `index_name` that covers heap segment `segment` (invokes ODCIIndexStart
  // under scan mode).  Segment 0 names a global index's only slice; a
  // LOCAL index scans partition by partition, one slice per call.
  Result<std::unique_ptr<Scan>> StartScan(const std::string& index_name,
                                          const OdciPredInfo& pred,
                                          uint32_t segment = 0);

  // ---- optimizer hooks (§2.4.2) ----

  // Prices the scan of `slice` of `index` for `pred`: ODCIStatsSelectivity
  // then ODCIStatsIndexCost through the retrying guard, with table_rows =
  // the slice's row count.  An indextype without a statistics type gets
  // the default selectivity 0.05 and cost 10 + sel * rows.
  Result<SliceEstimate> EstimateSlice(IndexInfo* index,
                                      const IndexSlice& slice,
                                      const OdciPredInfo& pred);

 private:
  // A definition-mode ODCI routine applied to one slice.
  using SliceRoutine = FunctionRef<Status(OdciIndex& impl,
                                          const OdciIndexInfo& info,
                                          ServerContext& ctx)>;

  Result<IndexInfo*> GetDomainIndex(const std::string& index_name);
  // ODCI metadata for `index`, named after the whole index.
  OdciIndexInfo InfoFor(const IndexInfo* index);

  // The one place an ODCIIndex or ODCIStats routine runs: opens a
  // ScopedOdciTrace for `routine` on `impl`, fires the fail-point `site`
  // (none when null), runs `call`, and marks the trace failed on a non-OK
  // status.  Never retries; safe on pool workers.
  static Status Invoke(const IndexInfo* index, const OdciIndex* impl,
                       const char* site, const char* routine,
                       FunctionRef<Status()> call);

  // The retrying ODCI call guard: Invoke, re-attempted on transient
  // failures per retry_policy_ (one trace entry per attempt, so retries are
  // visible in V$ODCI_CALLS).  `on_failure` runs after every failed
  // attempt, before the next one or the return.  Metered by odci_retries /
  // odci_call_timeouts.
  Status GuardedOdciCall(
      IndexInfo* index, const OdciIndex* impl, const char* site,
      const char* routine, FunctionRef<Status()> call,
      FunctionRef<void()> on_failure = [] {});

  // Runs `call` through the guard on each slice of `index` covering
  // `segment` (every slice when nullopt), in slice order, forgetting each
  // slice's memoized statistics first; `info` is the whole-index metadata,
  // renamed per slice.  The first failure aborts.
  Status CallOnSlices(IndexInfo* index, OdciIndexInfo info,
                      std::optional<uint32_t> segment, const char* site,
                      const char* routine, SliceRoutine call,
                      Transaction* txn);

  // Applies maintenance_policy_ to an exhausted-retry maintenance failure:
  // strict returns `error`; deferred marks `slice` FAILED, records
  // last_error, and returns OK so the DML commits.
  Status MaintenanceFailed(IndexInfo* index, IndexSlice* slice,
                           const Status& error);

  // One slice's maintenance: one guarded BatchInsert / BatchDelete /
  // BatchUpdate call with all of `rids`, traced as the per-kind routine.
  // `values` holds the indexed column of the rows (new values for insert,
  // old for delete/update); `new_values` the replacements (update only).
  // Every attempt starts from a savepoint of `txn`, to which a failed
  // attempt rolls back; with no transaction, retries roll nothing back.
  Status Dispatch(Maintenance kind, IndexInfo* index, IndexSlice& slice,
                  const OdciIndexInfo& info, const std::vector<RowId>& rids,
                  const ValueList& values, const ValueList& new_values,
                  GuardedServerContext& ctx, Transaction* txn);

  // Instantiates a fresh implementation object for `index`'s indextype
  // (every slice has its own).
  Result<std::shared_ptr<OdciIndex>> NewImplFor(const IndexInfo* index);

  // The only code that creates slice storage (CREATE INDEX, ADD PARTITION
  // and REBUILD): forgets the slice's memoized statistics, then builds
  // `*slice` (name and segment set) of `index` with a fresh implementation
  // instance and ODCIIndexCreate under the retry guard, the base-table
  // scan restricted to the slice's segment.  Every failed attempt is
  // followed by a best-effort ODCIIndexDrop of whatever storage it left.
  // Sets slice->impl on success and leaves it untouched on failure.
  Status BuildSlice(IndexInfo* index, const Schema& schema, IndexSlice* slice,
                    Transaction* txn);

  // Best-effort, traced ODCIIndexDrop of each built slice, in order: undoes
  // a failed multi-slice DDL and discards stale storage before a REBUILD.
  void DropSlices(
      const std::vector<std::pair<IndexInfo*, const IndexSlice*>>& slices,
      Transaction* txn);

  Catalog* catalog_;
  OdciRetryPolicy retry_policy_;
  IndexMaintenancePolicy maintenance_policy_ = IndexMaintenancePolicy::kStrict;
};

}  // namespace exi

#endif  // EXTIDX_CORE_DOMAIN_INDEX_H_
