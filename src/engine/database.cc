#include "engine/database.h"

#include "common/metrics.h"
#include "common/strings.h"
#include "common/tracer.h"
#include "index/key.h"

namespace exi {

namespace {
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

// What every system view is computed from: the catalog as the statement
// found it and one reading of the tracer and the storage counters.
struct ViewSources {
  Catalog& catalog;
  const TracerSnapshot& traced;
  const StorageMetrics& metrics;
};

// One system view: its name, its columns and the function building its
// rows.  docs-check pins every schema (docs/golden/vdollar_schema.txt).
struct SystemView {
  const char* name;
  std::vector<Column> columns;
  void (*rows)(const ViewSources&, std::vector<Row>*);
};

const std::vector<SystemView>& SystemViews() {
  static const std::vector<SystemView> views = {
      {"user_tables",
       {{"table_name", DataType::Varchar(128), true},
        {"num_rows", DataType::Integer(), true},
        {"num_columns", DataType::Integer(), true},
        {"analyzed", DataType::Boolean(), true}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const std::string& name : in.catalog.TableNames()) {
           TableInfo* info = *in.catalog.GetTableInfo(name);
           rows->push_back(
               {Value::Varchar(name),
                Value::Integer(int64_t(info->heap->row_count())),
                Value::Integer(int64_t(info->heap->schema().size())),
                Value::Boolean(info->stats.analyzed)});
         }
       }},
      {"user_indexes",
       {{"index_name", DataType::Varchar(128), true},
        {"table_name", DataType::Varchar(128), true},
        {"column_name", DataType::Varchar(128), false},
        {"index_type", DataType::Varchar(64), true},
        {"parameters", DataType::Varchar(1000), false}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const IndexInfo* idx : in.catalog.Indexes()) {
           rows->push_back(
               {Value::Varchar(idx->name), Value::Varchar(idx->table),
                idx->columns.empty() ? Value::Null()
                                     : Value::Varchar(idx->columns[0]),
                Value::Varchar(idx->is_domain() ? idx->indextype
                                                : "BTREE"),
                idx->parameters.empty() ? Value::Null()
                                        : Value::Varchar(idx->parameters)});
         }
       }},
      {"user_operators",
       {{"operator_name", DataType::Varchar(128), true},
        {"num_bindings", DataType::Integer(), true}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const OperatorDef* op : in.catalog.Operators()) {
           rows->push_back({Value::Varchar(op->name),
                            Value::Integer(int64_t(op->bindings.size()))});
         }
       }},
      {"user_indextypes",
       {{"indextype_name", DataType::Varchar(128), true},
        {"implementation", DataType::Varchar(128), true},
        {"operators", DataType::Varchar(1000), true}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const IndexTypeDef* it : in.catalog.IndexTypes()) {
           std::vector<std::string> ops;
           for (const SupportedOperator& so : it->operators) {
             ops.push_back(so.operator_name);
           }
           rows->push_back({Value::Varchar(it->name),
                            Value::Varchar(it->implementation),
                            Value::Varchar(Join(ops, ", "))});
         }
       }},
      // One row per traced (indextype, routine).
      {"v$odci_calls",
       {{"indextype", DataType::Varchar(128), true},
        {"cartridge", DataType::Varchar(64), true},
        {"routine", DataType::Varchar(64), true},
        {"calls", DataType::Integer(), true},
        {"errors", DataType::Integer(), true},
        {"total_us", DataType::Integer(), true},
        {"avg_us", DataType::Double(), true},
        {"min_us", DataType::Integer(), true},
        {"max_us", DataType::Integer(), true},
        {"p50_us", DataType::Integer(), true},
        {"p95_us", DataType::Integer(), true}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const auto& [key, stats] : in.traced) {
           rows->push_back(
               {Value::Varchar(key.first), Value::Varchar(stats.cartridge),
                Value::Varchar(key.second),
                Value::Integer(int64_t(stats.calls)),
                Value::Integer(int64_t(stats.errors)),
                Value::Integer(stats.total_us), Value::Double(stats.avg_us()),
                Value::Integer(stats.min_us), Value::Integer(stats.max_us),
                Value::Integer(stats.hist.ApproxPercentileUs(0.50)),
                Value::Integer(stats.hist.ApproxPercentileUs(0.95))});
         }
       }},
      // One row per engine counter.
      {"v$storage_metrics",
       {{"metric", DataType::Varchar(64), true},
        {"value", DataType::Integer(), true}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         ForEachMetric(in.metrics, [&](const char* name, uint64_t value) {
           rows->push_back(
               {Value::Varchar(name), Value::Integer(int64_t(value))});
         });
       }},
      // One row per table partition (DESIGN.md §7).  high_value is the RANGE
      // upper bound ("MAXVALUE" for the catch-all) and NULL for HASH
      // partitions; local_index_slices counts per-partition domain-index
      // storage objects.
      {"v$partitions",
       {{"table_name", DataType::Varchar(128), true},
        {"partition_name", DataType::Varchar(128), true},
        {"method", DataType::Varchar(16), true},
        {"key_column", DataType::Varchar(128), true},
        {"high_value", DataType::Varchar(256), false},
        {"segment_rows", DataType::Integer(), true},
        {"local_index_slices", DataType::Integer(), true}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const std::string& name : in.catalog.TableNames()) {
           TableInfo* info = *in.catalog.GetTableInfo(name);
           const PartitionScheme& scheme = info->partitioning;
           const bool range = scheme.method == PartitionMethod::kRange;
           for (const PartitionDef& part : scheme.partitions) {
             int64_t slices = 0;
             for (IndexInfo* idx : in.catalog.IndexesOnTable(name)) {
               if (idx->SliceForSegment(part.segment_id) != nullptr) slices++;
             }
             Value high = Value::Null();
             if (range) {
               high = Value::Varchar(part.upper_bound.has_value()
                                         ? part.upper_bound->ToString()
                                         : "MAXVALUE");
             }
             rows->push_back(
                 {Value::Varchar(name), Value::Varchar(part.name),
                  Value::Varchar(range ? "RANGE" : "HASH"),
                  Value::Varchar(scheme.key_column), high,
                  Value::Integer(
                      int64_t(info->heap->SegmentRowCount(part.segment_id))),
                  Value::Integer(slices)});
           }
         }
       }},
      // One row per domain index, with its lifecycle status
      // (docs/fault-tolerance.md).  status is the effective status — the
      // worst across the index's slices — and failed_slices counts slices
      // currently FAILED or UNUSABLE.  Slice counts describe LOCAL
      // indexes; a global index reports 0/0.
      {"v$domain_indexes",
       {{"index_name", DataType::Varchar(128), true},
        {"table_name", DataType::Varchar(128), true},
        {"indextype", DataType::Varchar(128), true},
        {"status", DataType::Varchar(16), true},
        {"total_slices", DataType::Integer(), true},
        {"failed_slices", DataType::Integer(), true},
        {"retries", DataType::Integer(), true},
        {"last_error", DataType::Varchar(1000), false}},
       [](const ViewSources& in, std::vector<Row>* rows) {
         for (const IndexInfo* idx : in.catalog.Indexes()) {
           if (!idx->is_domain()) continue;
           TableInfo* table = *in.catalog.GetTableInfo(idx->table);
           const bool local = table->partitioning.partitioned();
           rows->push_back(
               {Value::Varchar(idx->name), Value::Varchar(idx->table),
                Value::Varchar(idx->indextype),
                Value::Varchar(IndexStatusName(idx->effective_status())),
                Value::Integer(local ? int64_t(idx->slices.size()) : 0),
                Value::Integer(local ? int64_t(idx->failed_slices()) : 0),
                Value::Integer(int64_t(idx->retries)),
                idx->last_error.empty() ? Value::Null()
                                        : Value::Varchar(idx->last_error)});
         }
       }},
  };
  return views;
}

}  // namespace

bool Database::IsSystemView(const std::string& table_name) {
  for (const SystemView& view : SystemViews()) {
    if (EqualsIgnoreCase(table_name, view.name)) return true;
  }
  return false;
}

std::vector<std::string> Database::SystemViewNames() {
  std::vector<std::string> names;
  for (const SystemView& view : SystemViews()) names.push_back(view.name);
  return names;
}

Database::SystemViewScope::~SystemViewScope() {
  for (const std::string& view : views_) {
    (void)db_->catalog().DropTable(view);
  }
}

Status Database::SystemViewScope::Materialize(
    const std::vector<std::string>& table_names) {
  std::vector<const SystemView*> named;
  for (const SystemView& view : SystemViews()) {
    for (const std::string& table : table_names) {
      if (EqualsIgnoreCase(table, view.name)) {
        named.push_back(&view);
        break;
      }
    }
  }
  if (named.empty()) return Status::OK();

  // Every row is computed before any view table exists, so the filling
  // below skews no counter reading and no view lists another.
  TracerSnapshot traced = Tracer::Global().Snapshot();
  StorageMetrics metrics = GlobalMetrics().Snapshot();
  Catalog& catalog = db_->catalog();
  std::vector<std::vector<Row>> rows(named.size());
  for (size_t i = 0; i < named.size(); ++i) {
    named[i]->rows({catalog, traced, metrics}, &rows[i]);
  }
  for (size_t i = 0; i < named.size(); ++i) {
    EXI_RETURN_IF_ERROR(
        catalog.CreateTable(named[i]->name, Schema(named[i]->columns)));
    views_.push_back(named[i]->name);
    HeapTable* table = *catalog.GetTable(named[i]->name);
    for (Row& row : rows[i]) {
      EXI_RETURN_IF_ERROR(table->Insert(std::move(row)).status());
    }
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

Status Database::WriteBuiltin(const std::string& table_name,
                              BuiltinEntries entries, Transaction* txn) {
  for (IndexInfo* index : catalog_.IndexesOnTable(table_name)) {
    if (index->is_domain()) continue;
    std::vector<Row> removed;
    std::vector<Row> added;
    entries(*index->builtin, &removed, &added);
    EXI_RETURN_IF_ERROR(
        index->builtin->Write(std::move(removed), std::move(added), txn));
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
    rids.push_back(rid);
    inserted.emplace_back(rid, std::move(row));
  }
  EXI_RETURN_IF_ERROR(WriteBuiltin(
      table_name,
      [&](const BTreeIndex& index, std::vector<Row>*, std::vector<Row>* added) {
        for (const auto& [rid, row] : inserted) index.AddEntry(rid, row, added);
      },
      txn));
  EXI_RETURN_IF_ERROR(
      domains_.Maintain(DomainIndexManager::Maintenance::kInsert, table_name,
                        inserted, nullptr, txn));
  return rids;
}

Status Database::UpdateRow(const std::string& table_name, RowId rid,
                           Row new_row, Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  EXI_ASSIGN_OR_RETURN(Row old_row, table->Get(rid));
  return UpdateRows(table_name, {{rid, std::move(old_row)}},
                    {std::move(new_row)}, txn);
}

Status Database::UpdateRows(const std::string& table_name,
                            const std::vector<std::pair<RowId, Row>>& old_rows,
                            const std::vector<Row>& new_rows,
                            Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(TableInfo * tinfo, catalog_.GetTableInfo(table_name));
  HeapTable* table = tinfo->heap.get();
  for (size_t i = 0; i < old_rows.size(); ++i) {
    const auto& [rid, old_row] = old_rows[i];
    if (tinfo->partitioning.partitioned()) {
      EXI_ASSIGN_OR_RETURN(uint32_t segment,
                           SegmentFor(table_name, *tinfo, new_rows[i]));
      if (segment != HeapTable::SegmentOf(rid)) {
        return Status::InvalidArgument(
            "updating partition key would move the row to another partition "
            "of " + table_name + " (ORA-14402)");
      }
    }
    EXI_RETURN_IF_ERROR(table->Update(rid, new_rows[i]));
    if (txn != nullptr) {
      txn->PushUndo([table, rid = rid, old_copy = old_row] {
        (void)table->Update(rid, old_copy);
      });
    }
  }
  EXI_RETURN_IF_ERROR(WriteBuiltin(
      table_name,
      [&](const BTreeIndex& index, std::vector<Row>* removed,
          std::vector<Row>* added) {
        for (size_t i = 0; i < old_rows.size(); ++i) {
          index.AddEntry(old_rows[i].first, old_rows[i].second, removed);
          index.AddEntry(old_rows[i].first, new_rows[i], added);
        }
      },
      txn));
  return domains_.Maintain(DomainIndexManager::Maintenance::kUpdate,
                           table_name, old_rows, &new_rows, txn);
}

Status Database::DeleteRow(const std::string& table_name, RowId rid,
                           Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  EXI_ASSIGN_OR_RETURN(Row row, table->Get(rid));
  return DeleteRows(table_name, {{rid, std::move(row)}}, txn);
}

Status Database::DeleteRows(const std::string& table_name,
                            const std::vector<std::pair<RowId, Row>>& rows,
                            Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_.GetTable(table_name));
  for (const auto& [rid, row] : rows) {
    EXI_RETURN_IF_ERROR(table->Delete(rid));
    if (txn != nullptr) {
      txn->PushUndo([table, rid = rid, old_copy = row] {
        (void)table->Resurrect(rid, old_copy);
      });
    }
  }
  EXI_RETURN_IF_ERROR(WriteBuiltin(
      table_name,
      [&](const BTreeIndex& index, std::vector<Row>* removed,
          std::vector<Row>*) {
        for (const auto& [rid, row] : rows) index.AddEntry(rid, row, removed);
      },
      txn));
  return domains_.Maintain(DomainIndexManager::Maintenance::kDelete,
                           table_name, rows, nullptr, txn);
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
  // DDL commits; no undo logging (txn = nullptr), matching Oracle partition
  // maintenance semantics.
  return WriteBuiltin(
      table_name,
      [&](const BTreeIndex& index, std::vector<Row>* removed,
          std::vector<Row>*) {
        for (auto it = table->ScanSegment(segment); it.Valid(); it.Next()) {
          index.AddEntry(it.row_id(), it.row(), removed);
        }
      },
      nullptr);
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
  // come out as one removal run per index; domain indexes are LOCAL, so the
  // whole slice drops with one ODCIIndexDrop — zero per-row
  // ODCIIndexDelete calls.
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
