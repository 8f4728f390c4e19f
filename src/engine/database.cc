#include "engine/database.h"

#include "common/metrics.h"
#include "common/strings.h"
#include "common/tracer.h"
#include "index/key.h"

namespace exi {

namespace {
constexpr const char* kDictionaryViews[] = {
    "user_tables", "user_indexes", "user_operators", "user_indextypes"};
constexpr const char* kPerfViews[] = {"v$odci_calls", "v$storage_metrics",
                                      "v$partitions", "v$domain_indexes"};

// Routes a row to its owning heap segment: 0 for ordinary tables, else the
// partition picked by the partition-key value (ORA-14400 when none fits).
Result<uint32_t> SegmentFor(const std::string& table_name,
                            const TableInfo& info, const Row& row) {
  const PartitionScheme& scheme = info.partitioning;
  if (!scheme.partitioned()) return uint32_t{0};
  if (scheme.key_index >= row.size()) {
    return Status::Internal("partition key column missing from row for " +
                            table_name);
  }
  EXI_ASSIGN_OR_RETURN(const PartitionDef* part,
                       scheme.Route(row[scheme.key_index]));
  return part->segment_id;
}
}  // namespace

bool Database::IsDictionaryView(const std::string& table_name) {
  for (const char* view : kDictionaryViews) {
    if (EqualsIgnoreCase(table_name, view)) return true;
  }
  return false;
}

Status Database::RefreshDictionaryViews() {
  // Rebuild from scratch each time; dictionary views are tiny.
  for (const char* view : kDictionaryViews) {
    if (catalog_.TableExists(view)) {
      EXI_RETURN_IF_ERROR(catalog_.DropTable(view));
    }
  }

  Schema tables_schema;
  tables_schema.AddColumn(Column{"table_name", DataType::Varchar(128), true});
  tables_schema.AddColumn(Column{"num_rows", DataType::Integer(), true});
  tables_schema.AddColumn(Column{"num_columns", DataType::Integer(), true});
  tables_schema.AddColumn(Column{"analyzed", DataType::Boolean(), true});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("user_tables", tables_schema));

  Schema indexes_schema;
  indexes_schema.AddColumn(Column{"index_name", DataType::Varchar(128), true});
  indexes_schema.AddColumn(Column{"table_name", DataType::Varchar(128), true});
  indexes_schema.AddColumn(Column{"column_name", DataType::Varchar(128),
                                  false});
  indexes_schema.AddColumn(Column{"index_type", DataType::Varchar(64), true});
  indexes_schema.AddColumn(Column{"parameters", DataType::Varchar(1000),
                                  false});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("user_indexes", indexes_schema));

  Schema ops_schema;
  ops_schema.AddColumn(Column{"operator_name", DataType::Varchar(128), true});
  ops_schema.AddColumn(Column{"num_bindings", DataType::Integer(), true});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("user_operators", ops_schema));

  Schema it_schema;
  it_schema.AddColumn(Column{"indextype_name", DataType::Varchar(128), true});
  it_schema.AddColumn(Column{"implementation", DataType::Varchar(128), true});
  it_schema.AddColumn(Column{"operators", DataType::Varchar(1000), true});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("user_indextypes", it_schema));

  for (const std::string& name : catalog_.TableNames()) {
    if (IsDictionaryView(name)) continue;
    TableInfo* info = *catalog_.GetTableInfo(name);
    EXI_RETURN_IF_ERROR(
        InsertRow("user_tables",
                  {Value::Varchar(name),
                   Value::Integer(int64_t(info->heap->row_count())),
                   Value::Integer(int64_t(info->heap->schema().size())),
                   Value::Boolean(info->stats.analyzed)},
                  nullptr)
            .status());
  }
  for (const IndexInfo* idx : catalog_.Indexes()) {
    EXI_RETURN_IF_ERROR(
        InsertRow("user_indexes",
                  {Value::Varchar(idx->name), Value::Varchar(idx->table),
                   idx->columns.empty() ? Value::Null()
                                        : Value::Varchar(idx->columns[0]),
                   Value::Varchar(idx->is_domain() ? idx->indextype
                                                   : idx->builtin->kind()),
                   idx->parameters.empty() ? Value::Null()
                                           : Value::Varchar(idx->parameters)},
                  nullptr)
            .status());
  }
  for (const OperatorDef* op : catalog_.Operators()) {
    EXI_RETURN_IF_ERROR(
        InsertRow("user_operators",
                  {Value::Varchar(op->name),
                   Value::Integer(int64_t(op->bindings.size()))},
                  nullptr)
            .status());
  }
  for (const IndexTypeDef* it : catalog_.IndexTypes()) {
    std::vector<std::string> ops;
    for (const SupportedOperator& so : it->operators) {
      ops.push_back(so.operator_name);
    }
    EXI_RETURN_IF_ERROR(
        InsertRow("user_indextypes",
                  {Value::Varchar(it->name),
                   Value::Varchar(it->implementation),
                   Value::Varchar(Join(ops, ", "))},
                  nullptr)
            .status());
  }
  return Status::OK();
}

bool Database::IsPerfView(const std::string& table_name) {
  for (const char* view : kPerfViews) {
    if (EqualsIgnoreCase(table_name, view)) return true;
  }
  return false;
}

Status Database::RefreshPerfViews() {
  for (const char* view : kPerfViews) {
    if (catalog_.TableExists(view)) {
      EXI_RETURN_IF_ERROR(catalog_.DropTable(view));
    }
  }

  // V$ODCI_CALLS: one row per traced (indextype, routine).  Keep this
  // schema in sync with docs/golden/vdollar_schema.txt (docs-check).
  Schema odci_schema;
  odci_schema.AddColumn(Column{"indextype", DataType::Varchar(128), true});
  odci_schema.AddColumn(Column{"cartridge", DataType::Varchar(64), true});
  odci_schema.AddColumn(Column{"routine", DataType::Varchar(64), true});
  odci_schema.AddColumn(Column{"calls", DataType::Integer(), true});
  odci_schema.AddColumn(Column{"errors", DataType::Integer(), true});
  odci_schema.AddColumn(Column{"total_us", DataType::Integer(), true});
  odci_schema.AddColumn(Column{"avg_us", DataType::Double(), true});
  odci_schema.AddColumn(Column{"min_us", DataType::Integer(), true});
  odci_schema.AddColumn(Column{"max_us", DataType::Integer(), true});
  odci_schema.AddColumn(Column{"p50_us", DataType::Integer(), true});
  odci_schema.AddColumn(Column{"p95_us", DataType::Integer(), true});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("v$odci_calls", odci_schema));

  // V$STORAGE_METRICS: one row per engine counter.
  Schema storage_schema;
  storage_schema.AddColumn(Column{"metric", DataType::Varchar(64), true});
  storage_schema.AddColumn(Column{"value", DataType::Integer(), true});
  EXI_RETURN_IF_ERROR(
      catalog_.CreateTable("v$storage_metrics", storage_schema));

  // V$PARTITIONS: one row per table partition (DESIGN.md §7).  high_value
  // is the RANGE upper bound ("MAXVALUE" for the catch-all) and NULL for
  // HASH partitions; local_index_slices counts per-partition domain-index
  // storage objects.
  Schema part_schema;
  part_schema.AddColumn(Column{"table_name", DataType::Varchar(128), true});
  part_schema.AddColumn(Column{"partition_name", DataType::Varchar(128),
                               true});
  part_schema.AddColumn(Column{"method", DataType::Varchar(16), true});
  part_schema.AddColumn(Column{"key_column", DataType::Varchar(128), true});
  part_schema.AddColumn(Column{"high_value", DataType::Varchar(256), false});
  part_schema.AddColumn(Column{"segment_rows", DataType::Integer(), true});
  part_schema.AddColumn(Column{"local_index_slices", DataType::Integer(),
                               true});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("v$partitions", part_schema));

  // V$DOMAIN_INDEXES: one row per domain index, with its lifecycle status
  // (docs/fault-tolerance.md).  status is the effective status — the worst
  // across the index's slices — and failed_slices counts slices
  // currently FAILED or UNUSABLE.
  Schema di_schema;
  di_schema.AddColumn(Column{"index_name", DataType::Varchar(128), true});
  di_schema.AddColumn(Column{"table_name", DataType::Varchar(128), true});
  di_schema.AddColumn(Column{"indextype", DataType::Varchar(128), true});
  di_schema.AddColumn(Column{"status", DataType::Varchar(16), true});
  di_schema.AddColumn(Column{"total_slices", DataType::Integer(), true});
  di_schema.AddColumn(Column{"failed_slices", DataType::Integer(), true});
  di_schema.AddColumn(Column{"retries", DataType::Integer(), true});
  di_schema.AddColumn(Column{"last_error", DataType::Varchar(1000), false});
  EXI_RETURN_IF_ERROR(catalog_.CreateTable("v$domain_indexes", di_schema));

  // Snapshot both sources before inserting: the inserts below bump the
  // storage counters themselves, and a consistent pre-materialization
  // reading is more useful than one skewed row by row.
  TracerSnapshot traced = Tracer::Global().Snapshot();
  StorageMetrics metrics = GlobalMetrics().Snapshot();

  for (const auto& [key, stats] : traced) {
    EXI_RETURN_IF_ERROR(
        InsertRow("v$odci_calls",
                  {Value::Varchar(key.first), Value::Varchar(stats.cartridge),
                   Value::Varchar(key.second),
                   Value::Integer(int64_t(stats.calls)),
                   Value::Integer(int64_t(stats.errors)),
                   Value::Integer(stats.total_us),
                   Value::Double(stats.avg_us()), Value::Integer(stats.min_us),
                   Value::Integer(stats.max_us),
                   Value::Integer(stats.hist.ApproxPercentileUs(0.50)),
                   Value::Integer(stats.hist.ApproxPercentileUs(0.95))},
                  nullptr)
            .status());
  }
  Status insert = Status::OK();
  ForEachMetric(metrics, [&](const char* name, uint64_t value) {
    if (!insert.ok()) return;
    insert = InsertRow("v$storage_metrics",
                       {Value::Varchar(name), Value::Integer(int64_t(value))},
                       nullptr)
                 .status();
  });
  EXI_RETURN_IF_ERROR(insert);

  for (const std::string& name : catalog_.TableNames()) {
    if (IsDictionaryView(name) || IsPerfView(name)) continue;
    TableInfo* info = *catalog_.GetTableInfo(name);
    const PartitionScheme& scheme = info->partitioning;
    if (!scheme.partitioned()) continue;
    bool range = scheme.method == PartitionMethod::kRange;
    for (const PartitionDef& part : scheme.partitions) {
      int64_t slices = 0;
      for (IndexInfo* idx : catalog_.IndexesOnTable(name)) {
        if (idx->SliceForSegment(part.segment_id) != nullptr) slices++;
      }
      Value high = Value::Null();
      if (range) {
        high = Value::Varchar(part.upper_bound.has_value()
                                  ? part.upper_bound->ToString()
                                  : "MAXVALUE");
      }
      EXI_RETURN_IF_ERROR(
          InsertRow("v$partitions",
                    {Value::Varchar(name), Value::Varchar(part.name),
                     Value::Varchar(range ? "RANGE" : "HASH"),
                     Value::Varchar(scheme.key_column), high,
                     Value::Integer(int64_t(
                         info->heap->SegmentRowCount(part.segment_id))),
                     Value::Integer(slices)},
                    nullptr)
              .status());
    }
  }

  for (const IndexInfo* idx : catalog_.Indexes()) {
    if (!idx->is_domain()) continue;
    // Slice counts describe LOCAL indexes; a global index reports 0/0.
    EXI_ASSIGN_OR_RETURN(TableInfo * table, catalog_.GetTableInfo(idx->table));
    const bool local = table->partitioning.partitioned();
    EXI_RETURN_IF_ERROR(
        InsertRow("v$domain_indexes",
                  {Value::Varchar(idx->name), Value::Varchar(idx->table),
                   Value::Varchar(idx->indextype),
                   Value::Varchar(IndexStatusName(idx->effective_status())),
                   Value::Integer(local ? int64_t(idx->slices.size()) : 0),
                   Value::Integer(local ? int64_t(idx->failed_slices()) : 0),
                   Value::Integer(int64_t(idx->retries)),
                   idx->last_error.empty() ? Value::Null()
                                           : Value::Varchar(idx->last_error)},
                  nullptr)
            .status());
  }
  return Status::OK();
}

Database::Database()
    : txns_(&events_), domains_(&catalog_), planner_stats_(&catalog_) {
  // Statistics cached mid-transaction may describe uncommitted index state;
  // a rollback makes them wrong, so drop everything.
  rollback_handler_ = events_.Register([this](DbEvent event) {
    if (event == DbEvent::kRollback) planner_stats_.Clear();
  });
}

Database::~Database() { events_.Unregister(rollback_handler_); }

Result<std::optional<CompositeKey>> Database::KeyFor(
    const IndexInfo& index, const Schema& schema, const Row& row) const {
  CompositeKey key;
  for (const std::string& col : index.columns) {
    int c = schema.FindColumn(col);
    if (c < 0) {
      return Status::Internal("index " + index.name +
                              " references missing column " + col);
    }
    key.push_back(row[c]);
  }
  if (!key.empty() && key[0].is_null()) {
    return std::optional<CompositeKey>();  // NULL keys are not indexed
  }
  return std::optional<CompositeKey>(std::move(key));
}

Status Database::MaintainBuiltinOnInsert(const std::string& table_name,
                                         RowId rid, const Row& row,
                                         Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  for (IndexInfo* index : catalog_.IndexesOnTable(table_name)) {
    if (index->is_domain()) continue;
    EXI_ASSIGN_OR_RETURN(std::optional<CompositeKey> key,
                         KeyFor(*index, table->schema(), row));
    if (!key.has_value()) continue;
    BuiltinIndex* bidx = index->builtin.get();
    bidx->Insert(*key, rid);
    if (txn != nullptr) {
      CompositeKey k = *key;
      txn->PushUndo([bidx, k, rid] { bidx->Delete(k, rid); });
    }
  }
  return Status::OK();
}

Status Database::MaintainBuiltinOnDelete(const std::string& table_name,
                                         RowId rid, const Row& row,
                                         Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  for (IndexInfo* index : catalog_.IndexesOnTable(table_name)) {
    if (index->is_domain()) continue;
    EXI_ASSIGN_OR_RETURN(std::optional<CompositeKey> key,
                         KeyFor(*index, table->schema(), row));
    if (!key.has_value()) continue;
    BuiltinIndex* bidx = index->builtin.get();
    bidx->Delete(*key, rid);
    if (txn != nullptr) {
      CompositeKey k = *key;
      txn->PushUndo([bidx, k, rid] { bidx->Insert(k, rid); });
    }
  }
  return Status::OK();
}

Result<RowId> Database::InsertRow(const std::string& table_name, Row row,
                                  Transaction* txn) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  EXI_ASSIGN_OR_RETURN(std::vector<RowId> rids,
                       InsertRows(table_name, std::move(rows), txn));
  return rids[0];
}

Result<std::vector<RowId>> Database::InsertRows(const std::string& table_name,
                                                std::vector<Row> rows,
                                                Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(TableInfo * tinfo, catalog_.GetTableInfo(table_name));
  HeapTable* table = tinfo->heap.get();
  std::vector<std::pair<RowId, Row>> inserted;
  std::vector<RowId> rids;
  inserted.reserve(rows.size());
  rids.reserve(rows.size());
  for (Row& row : rows) {
    EXI_ASSIGN_OR_RETURN(uint32_t segment,
                         SegmentFor(table_name, *tinfo, row));
    EXI_ASSIGN_OR_RETURN(RowId rid, table->InsertInto(segment, row));
    if (txn != nullptr) {
      txn->PushUndo([table, rid] { (void)table->Delete(rid); });
    }
    EXI_RETURN_IF_ERROR(MaintainBuiltinOnInsert(table_name, rid, row, txn));
    rids.push_back(rid);
    inserted.emplace_back(rid, std::move(row));
  }
  EXI_RETURN_IF_ERROR(domains_.OnInsertBatch(table_name, inserted, txn));
  return rids;
}

Status Database::UpdateRow(const std::string& table_name, RowId rid,
                           Row new_row, Transaction* txn) {
  std::vector<std::pair<RowId, Row>> updates;
  updates.emplace_back(rid, std::move(new_row));
  return UpdateRows(table_name, std::move(updates), txn);
}

Status Database::UpdateRows(const std::string& table_name,
                            std::vector<std::pair<RowId, Row>> updates,
                            Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(TableInfo * tinfo, catalog_.GetTableInfo(table_name));
  HeapTable* table = tinfo->heap.get();
  std::vector<std::pair<RowId, Row>> old_rows;
  std::vector<Row> new_rows;
  old_rows.reserve(updates.size());
  new_rows.reserve(updates.size());
  for (auto& [rid, new_row] : updates) {
    if (tinfo->partitioning.partitioned()) {
      EXI_ASSIGN_OR_RETURN(uint32_t segment,
                           SegmentFor(table_name, *tinfo, new_row));
      if (segment != HeapTable::SegmentOf(rid)) {
        return Status::InvalidArgument(
            "updating partition key would move the row to another partition "
            "of " + table_name + " (ORA-14402)");
      }
    }
    EXI_ASSIGN_OR_RETURN(Row old_row, table->Get(rid));
    EXI_RETURN_IF_ERROR(table->Update(rid, new_row));
    if (txn != nullptr) {
      RowId undo_rid = rid;
      Row old_copy = old_row;
      txn->PushUndo([table, undo_rid, old_copy] {
        (void)table->Update(undo_rid, old_copy);
      });
    }
    EXI_RETURN_IF_ERROR(
        MaintainBuiltinOnDelete(table_name, rid, old_row, txn));
    EXI_RETURN_IF_ERROR(
        MaintainBuiltinOnInsert(table_name, rid, new_row, txn));
    old_rows.emplace_back(rid, std::move(old_row));
    new_rows.push_back(std::move(new_row));
  }
  return domains_.OnUpdateBatch(table_name, old_rows, new_rows, txn);
}

Status Database::DeleteRow(const std::string& table_name, RowId rid,
                           Transaction* txn) {
  return DeleteRows(table_name, {rid}, txn);
}

Status Database::DeleteRows(const std::string& table_name,
                            const std::vector<RowId>& rids, Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  std::vector<std::pair<RowId, Row>> deleted;
  deleted.reserve(rids.size());
  for (RowId rid : rids) {
    EXI_ASSIGN_OR_RETURN(Row old_row, table->Get(rid));
    EXI_RETURN_IF_ERROR(table->Delete(rid));
    if (txn != nullptr) {
      Row old_copy = old_row;
      txn->PushUndo([table, rid, old_copy] {
        (void)table->Resurrect(rid, old_copy);
      });
    }
    EXI_RETURN_IF_ERROR(
        MaintainBuiltinOnDelete(table_name, rid, old_row, txn));
    deleted.emplace_back(rid, std::move(old_row));
  }
  return domains_.OnDeleteBatch(table_name, deleted, txn);
}

Status Database::TruncateTable(const std::string& table_name,
                               Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  table->Truncate();
  for (IndexInfo* index : catalog_.IndexesOnTable(table_name)) {
    if (index->is_domain()) {
      // "when the corresponding table is truncated, the truncate method
      // specified as part of the indextype is invoked" (§2.4.1).
      EXI_RETURN_IF_ERROR(domains_.TruncateIndex(index->name, txn));
    } else {
      index->builtin->Truncate();
    }
  }
  return Status::OK();
}

Status Database::RemoveBuiltinEntriesForSegment(const std::string& table_name,
                                                uint32_t segment) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  std::vector<std::pair<RowId, Row>> rows;
  for (auto it = table->ScanSegment(segment); it.Valid(); it.Next()) {
    rows.emplace_back(it.row_id(), it.row());
  }
  // DDL commits; no undo logging (txn = nullptr), matching Oracle partition
  // maintenance semantics.
  for (auto& [rid, row] : rows) {
    EXI_RETURN_IF_ERROR(MaintainBuiltinOnDelete(table_name, rid, row, nullptr));
  }
  return Status::OK();
}

Status Database::AddPartition(const std::string& table_name,
                              const std::string& partition_name,
                              std::optional<Value> upper_bound,
                              Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTableInfo(table_name));
  PartitionScheme& scheme = info->partitioning;
  if (!scheme.partitioned()) {
    return Status::InvalidArgument("table " + table_name +
                                   " is not partitioned");
  }
  if (scheme.method != PartitionMethod::kRange) {
    return Status::InvalidArgument(
        "ADD PARTITION requires a RANGE-partitioned table; the hash fanout "
        "of " + table_name + " is fixed at CREATE TABLE");
  }
  if (scheme.Find(partition_name) != nullptr) {
    return Status::AlreadyExists("partition " + partition_name +
                                 " already exists on " + table_name);
  }
  const PartitionDef& last = scheme.partitions.back();
  if (!last.upper_bound.has_value()) {
    return Status::InvalidArgument(
        "cannot add a partition above the MAXVALUE partition " + last.name +
        " of " + table_name);
  }
  if (upper_bound.has_value() &&
      TotalOrderCompare(*upper_bound, *last.upper_bound) <= 0) {
    return Status::InvalidArgument(
        "ADD PARTITION bound must be above the current high bound of " +
        table_name);
  }

  uint32_t segment = info->heap->AddSegment();
  scheme.partitions.push_back(
      PartitionDef{partition_name, segment, std::move(upper_bound)});
  // Build one slice of every local domain index (empty backfill: the new
  // segment has no rows yet).  On failure undo this call completely so a
  // mid-ADD cartridge error leaves the table exactly as before.
  Status built =
      domains_.AddPartitionIndexes(table_name, scheme.partitions.back(), txn);
  if (!built.ok()) {
    scheme.partitions.pop_back();
    (void)info->heap->DropSegment(segment);
    return built;
  }
  return Status::OK();
}

Status Database::DropPartition(const std::string& table_name,
                               const std::string& partition_name,
                               Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTableInfo(table_name));
  PartitionScheme& scheme = info->partitioning;
  if (!scheme.partitioned()) {
    return Status::InvalidArgument("table " + table_name +
                                   " is not partitioned");
  }
  if (scheme.method != PartitionMethod::kRange) {
    return Status::InvalidArgument(
        "DROP PARTITION requires a RANGE-partitioned table (hash fanout is "
        "fixed)");
  }
  if (scheme.partitions.size() == 1) {
    return Status::InvalidArgument("cannot drop the only partition of " +
                                   table_name);
  }
  const PartitionDef* found = scheme.Find(partition_name);
  if (found == nullptr) {
    return Status::NotFound("no partition " + partition_name + " on " +
                            table_name);
  }
  PartitionDef def = *found;  // the scheme entry is erased below

  // Built-in indexes are global, so their entries for this partition's rows
  // come out row by row; domain indexes are LOCAL, so the whole slice drops
  // with one ODCIIndexDrop — zero per-row ODCIIndexDelete calls.
  EXI_RETURN_IF_ERROR(
      RemoveBuiltinEntriesForSegment(table_name, def.segment_id));
  EXI_RETURN_IF_ERROR(domains_.DropPartitionIndexes(table_name, def, txn));
  EXI_RETURN_IF_ERROR(info->heap->DropSegment(def.segment_id).status());
  for (auto it = scheme.partitions.begin(); it != scheme.partitions.end();
       ++it) {
    if (EqualsIgnoreCase(it->name, partition_name)) {
      scheme.partitions.erase(it);
      break;
    }
  }
  return Status::OK();
}

Status Database::TruncatePartition(const std::string& table_name,
                                   const std::string& partition_name,
                                   Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTableInfo(table_name));
  PartitionScheme& scheme = info->partitioning;
  if (!scheme.partitioned()) {
    return Status::InvalidArgument("table " + table_name +
                                   " is not partitioned");
  }
  const PartitionDef* part = scheme.Find(partition_name);
  if (part == nullptr) {
    return Status::NotFound("no partition " + partition_name + " on " +
                            table_name);
  }
  EXI_RETURN_IF_ERROR(
      RemoveBuiltinEntriesForSegment(table_name, part->segment_id));
  EXI_RETURN_IF_ERROR(domains_.TruncatePartitionIndexes(table_name, *part,
                                                        txn));
  EXI_RETURN_IF_ERROR(info->heap->TruncateSegment(part->segment_id).status());
  return Status::OK();
}

Status Database::DropTableCascade(const std::string& table_name,
                                  Transaction* txn) {
  // Copy names: dropping mutates the index list.
  std::vector<std::string> names;
  for (IndexInfo* index : catalog_.IndexesOnTable(table_name)) {
    names.push_back(index->name);
  }
  for (const std::string& name : names) {
    EXI_ASSIGN_OR_RETURN(IndexInfo * index, catalog_.GetIndex(name));
    if (index->is_domain()) {
      EXI_RETURN_IF_ERROR(domains_.DropIndex(name, txn));
    } else {
      EXI_RETURN_IF_ERROR(catalog_.RemoveIndex(name));
    }
  }
  return catalog_.DropTable(table_name);
}

}  // namespace exi
