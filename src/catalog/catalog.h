#ifndef EXTIDX_CATALOG_CATALOG_H_
#define EXTIDX_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/indextype.h"
#include "core/odci.h"
#include "core/operator_registry.h"
#include "index/bptree.h"
#include "index/iot.h"
#include "storage/file_store.h"
#include "storage/heap_table.h"
#include "storage/lob_store.h"
#include "types/datatype.h"
#include "types/schema.h"

namespace exi {

// Per-column statistics gathered by ANALYZE; stored in the dictionary like
// Oracle's DBA_TAB_COLUMNS stats and consumed by the cost-based optimizer.
struct ColumnStats {
  uint64_t distinct_values = 0;
  uint64_t null_count = 0;
  std::optional<Value> min;
  std::optional<Value> max;
};

struct TableStats {
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;  // positional against the table schema
  bool analyzed = false;
};

// ---- partitioning (DESIGN.md §7) ----

enum class PartitionMethod { kNone, kRange, kHash };

// One partition: a named part of the table backed by its own heap segment.
struct PartitionDef {
  std::string name;
  uint32_t segment_id = 0;
  // RANGE only: exclusive upper bound (VALUES LESS THAN); nullopt = MAXVALUE.
  std::optional<Value> upper_bound;
};

// How a table's rows map to partitions.  RANGE partitions are ordered by
// ascending upper bound; HASH partitions are fixed at CREATE TABLE time.
struct PartitionScheme {
  PartitionMethod method = PartitionMethod::kNone;
  std::string key_column;
  size_t key_index = 0;  // position of key_column in the table schema
  std::vector<PartitionDef> partitions;

  bool partitioned() const { return method != PartitionMethod::kNone; }
  const PartitionDef* Find(const std::string& name) const;
  // Routes a partition-key value to its owning partition, or an ORA-14400
  // style error when no RANGE partition's bound admits it.
  Result<const PartitionDef*> Route(const Value& key) const;
  // Deterministic hash bucket for HASH routing and planner pruning.
  static size_t HashBucket(const Value& key, size_t fanout);
};

// Domain-index lifecycle states (docs/fault-tolerance.md).  Mirrors
// Oracle's DBA_INDEXES.STATUS / DBA_IND_PARTITIONS.STATUS for domain
// indexes: a failing cartridge routine marks one slice of the index rather
// than corrupting the table, and `ALTER INDEX ... REBUILD` returns it to
// VALID.  Declared in severity order (effective_status() relies on it).
enum class IndexStatus {
  kValid,       // usable by the planner and maintained by DML
  kInProgress,  // build/rebuild running; scans get an ORA-01502-style error
  kFailed,      // deferred-policy maintenance failure; contents stale
  kUnusable,    // rebuild itself failed; storage state unknown
};

// "VALID" / "IN_PROGRESS" / "FAILED" / "UNUSABLE".
const char* IndexStatusName(IndexStatus status);

// One storage object of a domain index (DESIGN.md §7): a dedicated
// ODCIIndex implementation instance plus the heap segment whose rows it
// indexes.  A global index has one slice, named `<index>`, over segment 0
// (the whole of an unpartitioned table); a LOCAL index on a partitioned
// table has one per partition, named `<index>#<partition>`
// (cartridge-authors-guide.md), over that partition's segment.  `name` is
// the index_name the slice's ODCI routines see.  `status` is the slice's
// lifecycle state (IN_PROGRESS while a REBUILD builds it).  `stats` memoizes
// the slice's ODCIStats answers by normalized predicate
// (optimizer/stats_cache.h); the DomainIndexManager code that changes the
// slice's contents forgets them.
struct SliceEstimate {
  double selectivity = 0.0;  // fraction of the slice's rows
  double cost = 0.0;
};
struct IndexSlice {
  std::string name;
  uint32_t segment = 0;
  std::shared_ptr<OdciIndex> impl = nullptr;
  IndexStatus status = IndexStatus::kValid;
  std::unordered_map<std::string, SliceEstimate> stats = {};
};

// Dictionary record for an index (built-in or domain).
struct IndexInfo {
  std::string name;
  std::string table;
  std::vector<std::string> columns;

  // Built-in index: non-null B-tree.
  std::unique_ptr<BTreeIndex> builtin;

  // Domain index: indextype name, uninterpreted PARAMETERS string, the
  // statistics instance, and the storage slices in partition order.
  std::string indextype;
  std::string parameters;
  std::shared_ptr<OdciStats> domain_stats;  // may be null
  std::vector<IndexSlice> slices;

  // Lifecycle state (docs/fault-tolerance.md) lives on the slices;
  // effective_status() is the one to display.
  std::string last_error;   // most recent failure that changed the status
  uint64_t retries = 0;     // guard retry attempts charged to this index

  bool is_domain() const { return !indextype.empty(); }

  // Worst state across the slices, in severity order
  // UNUSABLE > FAILED > IN_PROGRESS > VALID.
  IndexStatus effective_status() const {
    IndexStatus worst = IndexStatus::kValid;
    for (const IndexSlice& s : slices) {
      if (int(s.status) > int(worst)) worst = s.status;
    }
    return worst;
  }
  size_t failed_slices() const {
    size_t n = 0;
    for (const IndexSlice& s : slices) {
      if (s.status != IndexStatus::kValid) ++n;
    }
    return n;
  }

  // The slice indexing heap segment `segment`, or nullptr.
  const IndexSlice* SliceForSegment(uint32_t segment) const {
    for (const IndexSlice& s : slices) {
      if (s.segment == segment) return &s;
    }
    return nullptr;
  }
  IndexSlice* SliceForSegment(uint32_t segment) {
    return const_cast<IndexSlice*>(
        static_cast<const IndexInfo*>(this)->SliceForSegment(segment));
  }

  // Metadata bundle passed into every ODCI routine for this index; slice
  // routines see the slice's name in index_name.
  OdciIndexInfo ToOdciInfo(const Schema& table_schema) const;
};

// Dictionary record for a table (its indexes: Catalog::IndexesOnTable).
struct TableInfo {
  std::unique_ptr<HeapTable> heap;
  TableStats stats;
  PartitionScheme partitioning;  // method == kNone for ordinary tables
};

// The data dictionary (§2: operators and indextypes are "top level schema
// objects").  Owns every schema object and the cartridge-visible storage
// namespaces (IOTs, index-data heap tables, LOB store, external file
// stores).  Name lookups are case-insensitive, as in SQL.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // ---- tables ----
  Status CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);  // caller drops indexes first
  Result<HeapTable*> GetTable(const std::string& name);
  Result<const HeapTable*> GetTable(const std::string& name) const;
  Result<TableInfo*> GetTableInfo(const std::string& name);
  bool TableExists(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // ---- object types ----
  Status RegisterObjectType(ObjectTypeDef def);
  Result<const ObjectTypeDef*> GetObjectType(const std::string& name) const;

  // ---- operators ----
  Status CreateOperator(OperatorDef def);
  Status DropOperator(const std::string& name);
  Result<const OperatorDef*> GetOperator(const std::string& name) const;
  bool OperatorExists(const std::string& name) const;
  std::vector<const OperatorDef*> Operators() const;

  // ---- indextypes ----
  Status CreateIndexType(IndexTypeDef def);
  Status DropIndexType(const std::string& name);
  Result<const IndexTypeDef*> GetIndexType(const std::string& name) const;
  std::vector<const IndexTypeDef*> IndexTypes() const;

  // ---- indexes ----
  Status AddIndex(std::unique_ptr<IndexInfo> info);
  Status RemoveIndex(const std::string& name);
  Result<IndexInfo*> GetIndex(const std::string& name);
  bool IndexExists(const std::string& name) const;
  // All indexes on `table`; optionally only those covering `column` as the
  // leading indexed column.
  std::vector<IndexInfo*> IndexesOnTable(const std::string& table);
  std::vector<const IndexInfo*> Indexes() const;
  std::vector<IndexInfo*> IndexesOnColumn(const std::string& table,
                                          const std::string& column);

  // ---- registries (cartridge developer hooks) ----
  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }
  ImplementationRegistry& implementations() { return implementations_; }
  const ImplementationRegistry& implementations() const {
    return implementations_;
  }

  // ---- cartridge index-data storage namespaces ----
  Status CreateIot(const std::string& name, Schema schema, size_t key_cols);
  Status DropIot(const std::string& name);
  Result<Iot*> GetIot(const std::string& name);
  Result<const Iot*> GetIot(const std::string& name) const;
  bool IotExists(const std::string& name) const;
  std::vector<std::string> IotNames() const;

  Status CreateIndexTable(const std::string& name, Schema schema);
  Status DropIndexTable(const std::string& name);
  Result<HeapTable*> GetIndexTable(const std::string& name);
  bool IndexTableExists(const std::string& name) const;
  std::vector<std::string> IndexTableNames() const;

  LobStore& lobs() { return lobs_; }
  const LobStore& lobs() const { return lobs_; }

  // External file stores are created lazily under `external_root`.
  void set_external_root(std::string root) {
    external_root_ = std::move(root);
  }
  const std::string& external_root() const { return external_root_; }
  Result<FileStore*> GetOrCreateFileStore(const std::string& store_name);

 private:
  static std::string Key(const std::string& name);

  std::map<std::string, TableInfo> tables_;
  std::map<std::string, std::unique_ptr<IndexInfo>> indexes_;
  std::map<std::string, ObjectTypeDef> object_types_;
  std::map<std::string, OperatorDef> operators_;
  std::map<std::string, IndexTypeDef> indextypes_;

  FunctionRegistry functions_;
  ImplementationRegistry implementations_;

  std::map<std::string, std::unique_ptr<Iot>> iots_;
  std::map<std::string, std::unique_ptr<HeapTable>> index_tables_;
  LobStore lobs_;
  std::string external_root_ = "/tmp/extidx_external";
  std::map<std::string, std::unique_ptr<FileStore>> file_stores_;
};

}  // namespace exi

#endif  // EXTIDX_CATALOG_CATALOG_H_
