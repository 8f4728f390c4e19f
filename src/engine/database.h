#ifndef EXTIDX_ENGINE_DATABASE_H_
#define EXTIDX_ENGINE_DATABASE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/function_ref.h"
#include "core/domain_index.h"
#include "optimizer/stats_cache.h"
#include "txn/events.h"
#include "txn/transaction.h"

namespace exi {

// The embedded database instance: catalog + transaction machinery + the
// extensible-indexing dispatch layer.  Cartridges register their C++ hooks
// (implementation types, operator functions, object types) against the
// catalog, then SQL DDL creates the corresponding schema objects.
//
// Single-session; open one Connection at a time.  The session itself is
// single-threaded, but with parallelism > 1 the engine runs domain-index
// join probes on a shared worker pool — see DESIGN.md §5 for the
// concurrency model.
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  EventManager& events() { return events_; }
  TransactionManager& txns() { return txns_; }
  DomainIndexManager& domains() { return domains_; }

  // The planner's view of the per-slice ODCIStats memos
  // (optimizer/stats_cache.h).  The Database owns it because Planners are
  // per-statement; the domain-index code that changes a slice forgets that
  // slice's entries, and a rollback event clears every slice's memo
  // (entries may have been computed against uncommitted index state).
  PlannerStatsCache& planner_stats() { return planner_stats_; }

  // ODCIIndexFetch batch size used by planned domain-index scans
  // (§2.5 batch interface).  The default, 256, is the knee of experiment
  // E7's sweep.
  size_t fetch_batch_size() const { return fetch_batch_size_; }
  void set_fetch_batch_size(size_t n) { fetch_batch_size_ = n ? n : 1; }

  // Degree of parallelism for domain-index join probes (DESIGN.md §5).
  // 1 (the default) keeps every path strictly serial — byte-identical
  // results and EXPLAIN output to the pre-parallelism engine.  Index
  // builds and index scans are serial at any setting.
  size_t parallelism() const { return parallelism_; }
  void set_parallelism(size_t n) { parallelism_ = n ? n : 1; }

  // Domain-index maintenance failure policy (docs/fault-tolerance.md):
  // strict (default) fails the DML statement when a cartridge maintenance
  // routine fails; deferred marks the index (or LOCAL slice) FAILED and lets
  // the DML commit, leaving recovery to ALTER INDEX ... REBUILD.
  IndexMaintenancePolicy index_maintenance_policy() const {
    return domains_.maintenance_policy();
  }
  void set_index_maintenance_policy(IndexMaintenancePolicy policy) {
    domains_.set_maintenance_policy(policy);
  }

  // ---- row mutation with implicit index maintenance (§2.4.1) ----
  // Every mutation maintains built-in indexes natively and domain indexes
  // through ODCIIndex maintenance routines, and logs undo into `txn`.

  // A DML statement's rows go through the *Rows forms: the heap changes
  // per row, then each built-in index takes one merge run (one undo entry)
  // and each touched domain-index slice one array call
  // (core/domain_index.h).  UpdateRows/DeleteRows take the (rowid, old
  // row) pairs the statement matched; new_rows[i] replaces old_rows[i].
  // The single-row forms read the old row and are one-row batches.
  Result<RowId> InsertRow(const std::string& table_name, Row row,
                          Transaction* txn);
  Status UpdateRow(const std::string& table_name, RowId rid, Row new_row,
                   Transaction* txn);
  Status DeleteRow(const std::string& table_name, RowId rid,
                   Transaction* txn);
  Result<std::vector<RowId>> InsertRows(const std::string& table_name,
                                        std::vector<Row> rows,
                                        Transaction* txn);
  Status UpdateRows(const std::string& table_name,
                    const std::vector<std::pair<RowId, Row>>& old_rows,
                    const std::vector<Row>& new_rows, Transaction* txn);
  Status DeleteRows(const std::string& table_name,
                    const std::vector<std::pair<RowId, Row>>& rows,
                    Transaction* txn);

  // Truncates the table and all its indexes (built-in natively, domain via
  // ODCIIndexTruncate).
  Status TruncateTable(const std::string& table_name, Transaction* txn);

  // ---- partition DDL (DESIGN.md §7) ----
  // RANGE tables only for ADD/DROP (a HASH table's fanout is fixed at
  // CREATE); TRUNCATE works for both methods.  Partition DDL is DDL: the
  // connection commits first and these effects are not undone.

  // ALTER TABLE ... ADD PARTITION p VALUES LESS THAN (...): allocates a new
  // heap segment and builds one slice of every local domain index,
  // backfilled from the (empty) segment.  If any slice build fails, slices
  // and the segment created by this call are removed before returning.
  // `upper_bound` empty = MAXVALUE.
  Status AddPartition(const std::string& table_name,
                      const std::string& partition_name,
                      std::optional<Value> upper_bound, Transaction* txn);

  // ALTER TABLE ... DROP PARTITION: removes built-in index entries for the
  // partition's rows, then drops each local domain-index slice with a
  // single ODCIIndexDrop — zero per-row ODCIIndexDelete calls — and frees
  // the heap segment.
  Status DropPartition(const std::string& table_name,
                       const std::string& partition_name, Transaction* txn);

  // ALTER TABLE ... TRUNCATE PARTITION: same shape with ODCIIndexTruncate;
  // the partition stays defined and empty.
  Status TruncatePartition(const std::string& table_name,
                           const std::string& partition_name,
                           Transaction* txn);

  // Drops the table after dropping all its indexes.
  Status DropTableCascade(const std::string& table_name, Transaction* txn);

  // ---- system views ----
  // The dictionary (USER_*) and performance (V$*) views, listed once in the
  // registry in database.cc, are ordinary tables that exist only while the
  // statement naming them runs (docs/observability.md).

  // True if `table_name` names a system view (any case).
  static bool IsSystemView(const std::string& table_name);

  // Every system view name, in registry order.
  static std::vector<std::string> SystemViewNames();

  // The system views one statement reads: Materialize builds the views
  // among `table_names` (other names are ignored) from one reading of the
  // catalog, the global Tracer and GlobalMetrics, taken before any view
  // table exists, and the destructor drops exactly those tables.  Counters
  // are cumulative since process start, Oracle v$ semantics.  Filling the
  // tables runs through the storage layer, so V$STORAGE_METRICS readings
  // perturb the storage counters slightly (never the ODCI counters).
  class SystemViewScope {
   public:
    explicit SystemViewScope(Database* db) : db_(db) {}
    SystemViewScope(const SystemViewScope&) = delete;
    SystemViewScope& operator=(const SystemViewScope&) = delete;
    ~SystemViewScope();

    Status Materialize(const std::vector<std::string>& table_names);

   private:
    Database* db_;
    std::vector<std::string> views_;
  };

 private:
  // Gives every built-in index on the table one BTreeIndex::Write of the
  // entries `entries` builds for it, logging its undo in `txn`.
  using BuiltinEntries =
      FunctionRef<void(const BTreeIndex&, std::vector<Row>* removed,
                       std::vector<Row>* added)>;
  Status WriteBuiltin(const std::string& table_name, BuiltinEntries entries,
                      Transaction* txn);

  // Removes every built-in index entry for rows living in `segment`
  // (DROP/TRUNCATE PARTITION groundwork; built-in indexes are global).
  Status RemoveBuiltinEntriesForSegment(const std::string& table_name,
                                        uint32_t segment);

  Catalog catalog_;
  EventManager events_;
  TransactionManager txns_;
  DomainIndexManager domains_;
  PlannerStatsCache planner_stats_;
  uint64_t rollback_handler_ = 0;
  size_t fetch_batch_size_ = 256;
  size_t parallelism_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_ENGINE_DATABASE_H_
