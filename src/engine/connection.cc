#include "engine/connection.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/tracer.h"
#include "index/key.h"
#include "exec/evaluator.h"
#include "exec/expression.h"
#include "index/bptree.h"
#include "optimizer/stats.h"
#include "sql/parser.h"

namespace exi {

using sql::Statement;
using sql::StmtKind;

Result<QueryResult> Connection::Execute(const std::string& sql_text) {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                       sql::Parse(sql_text));
  return Dispatch(stmt.get());
}

Result<QueryResult> Connection::ExecuteScript(const std::string& sql_text) {
  EXI_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<Statement>> stmts,
                       sql::ParseScript(sql_text));
  QueryResult last;
  for (auto& stmt : stmts) {
    EXI_ASSIGN_OR_RETURN(last, Dispatch(stmt.get()));
  }
  return last;
}

QueryResult Connection::MustExecute(const std::string& sql_text) {
  Result<QueryResult> result = Execute(sql_text);
  if (!result.ok()) {
    std::fprintf(stderr, "MustExecute failed: %s\n  SQL: %s\n",
                 result.status().ToString().c_str(), sql_text.c_str());
    std::abort();
  }
  return std::move(result).value();
}

Status Connection::CommitBeforeDdl() {
  if (db_->txns().InTransaction()) {
    return db_->txns().Commit();
  }
  return Status::OK();
}

Result<QueryResult> Connection::WithStatementTxn(
    const std::function<Result<QueryResult>(Transaction*)>& body) {
  TransactionManager& tm = db_->txns();
  bool implicit = tm.EnsureStatementTransaction();
  Transaction* txn = tm.current();
  size_t savepoint = txn->Savepoint();
  Result<QueryResult> result = body(txn);
  if (result.ok()) {
    if (implicit) EXI_RETURN_IF_ERROR(tm.Commit());
    return result;
  }
  // Statement-level rollback: undo only this statement's mutations.
  if (implicit) {
    (void)tm.Rollback();
  } else {
    txn->RollbackTo(savepoint);
  }
  return result;
}

Result<QueryResult> Connection::Dispatch(Statement* stmt) {
  switch (stmt->kind) {
    case StmtKind::kCreateTable:
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      return RunCreateTable(static_cast<sql::CreateTableStmt*>(stmt));
    case StmtKind::kDropTable: {
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      auto* s = static_cast<sql::DropTableStmt*>(stmt);
      EXI_RETURN_IF_ERROR(db_->DropTableCascade(s->table, nullptr));
      QueryResult r;
      r.message = "table dropped: " + s->table;
      return r;
    }
    case StmtKind::kTruncateTable: {
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      auto* s = static_cast<sql::TruncateTableStmt*>(stmt);
      EXI_RETURN_IF_ERROR(db_->TruncateTable(s->table, nullptr));
      QueryResult r;
      r.message = "table truncated: " + s->table;
      return r;
    }
    case StmtKind::kAlterTable:
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      return RunAlterTable(static_cast<sql::AlterTableStmt*>(stmt));
    case StmtKind::kCreateIndex:
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      return RunCreateIndex(static_cast<sql::CreateIndexStmt*>(stmt));
    case StmtKind::kAlterIndex: {
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      auto* s = static_cast<sql::AlterIndexStmt*>(stmt);
      if (s->rebuild) {
        EXI_RETURN_IF_ERROR(
            db_->domains().RebuildIndex(s->index, s->partition, nullptr));
        QueryResult r;
        r.message = "index rebuilt: " + s->index +
                    (s->partition.empty() ? ""
                                          : " partition " + s->partition);
        return r;
      }
      EXI_RETURN_IF_ERROR(
          db_->domains().AlterIndex(s->index, s->parameters, nullptr));
      QueryResult r;
      r.message = "index altered: " + s->index;
      return r;
    }
    case StmtKind::kDropIndex: {
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      auto* s = static_cast<sql::DropIndexStmt*>(stmt);
      EXI_ASSIGN_OR_RETURN(IndexInfo * info,
                           db_->catalog().GetIndex(s->index));
      if (info->is_domain()) {
        EXI_RETURN_IF_ERROR(db_->domains().DropIndex(s->index, nullptr));
      } else {
        EXI_RETURN_IF_ERROR(db_->catalog().RemoveIndex(s->index));
      }
      QueryResult r;
      r.message = "index dropped: " + s->index;
      return r;
    }
    case StmtKind::kCreateOperator:
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      return RunCreateOperator(static_cast<sql::CreateOperatorStmt*>(stmt));
    case StmtKind::kDropOperator: {
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      auto* s = static_cast<sql::DropOperatorStmt*>(stmt);
      EXI_RETURN_IF_ERROR(db_->catalog().DropOperator(s->name));
      QueryResult r;
      r.message = "operator dropped: " + s->name;
      return r;
    }
    case StmtKind::kCreateIndexType:
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      return RunCreateIndexType(
          static_cast<sql::CreateIndexTypeStmt*>(stmt));
    case StmtKind::kDropIndexType: {
      EXI_RETURN_IF_ERROR(CommitBeforeDdl());
      auto* s = static_cast<sql::DropIndexTypeStmt*>(stmt);
      EXI_RETURN_IF_ERROR(db_->catalog().DropIndexType(s->name));
      QueryResult r;
      r.message = "indextype dropped: " + s->name;
      return r;
    }
    case StmtKind::kAnalyze: {
      auto* s = static_cast<sql::AnalyzeStmt*>(stmt);
      EXI_RETURN_IF_ERROR(AnalyzeTable(&db_->catalog(), s->table));
      QueryResult r;
      r.message = "table analyzed: " + s->table;
      return r;
    }
    case StmtKind::kInsert:
      return RunInsert(static_cast<sql::InsertStmt*>(stmt));
    case StmtKind::kUpdate:
      return RunUpdate(static_cast<sql::UpdateStmt*>(stmt));
    case StmtKind::kDelete:
      return RunDelete(static_cast<sql::DeleteStmt*>(stmt));
    case StmtKind::kSelect:
      return RunQuery(static_cast<sql::SelectStmt*>(stmt), nullptr);
    case StmtKind::kBegin: {
      EXI_RETURN_IF_ERROR(db_->txns().Begin());
      QueryResult r;
      r.message = "transaction started";
      return r;
    }
    case StmtKind::kCommit: {
      EXI_RETURN_IF_ERROR(db_->txns().Commit());
      QueryResult r;
      r.message = "committed";
      return r;
    }
    case StmtKind::kRollback: {
      EXI_RETURN_IF_ERROR(db_->txns().Rollback());
      QueryResult r;
      r.message = "rolled back";
      return r;
    }
    case StmtKind::kExplain: {
      auto* s = static_cast<sql::ExplainStmt*>(stmt);
      if (s->inner->kind != StmtKind::kSelect) {
        return Status::NotSupported("EXPLAIN supports SELECT only");
      }
      return RunQuery(static_cast<sql::SelectStmt*>(s->inner.get()), s);
    }
    case StmtKind::kSet: {
      auto* s = static_cast<sql::SetStmt*>(stmt);
      QueryResult r;
      if (s->target == sql::SetStmt::Target::kIndexMaintenance) {
        db_->set_index_maintenance_policy(
            EqualsIgnoreCase(s->value, "deferred")
                ? IndexMaintenancePolicy::kDeferred
                : IndexMaintenancePolicy::kStrict);
        r.message = "index maintenance policy: " + s->value;
        return r;
      }
      EXI_RETURN_IF_ERROR(FailPointRegistry::Global().Set(s->name, s->value));
      r.message = "failpoint '" + s->name + "' = " + s->value;
      return r;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Connection::RunCreateTable(sql::CreateTableStmt* stmt) {
  if (Database::IsSystemView(stmt->table)) {
    return Status::InvalidArgument("cannot create table " + stmt->table +
                                   ": the name belongs to a system view");
  }
  Schema schema;
  for (const sql::ColumnDef& def : stmt->columns) {
    EXI_ASSIGN_OR_RETURN(DataType type, DataType::FromString(def.type_text));
    if (type.tag() == TypeTag::kObject) {
      EXI_RETURN_IF_ERROR(
          db_->catalog().GetObjectType(type.object_type()).status());
    }
    schema.AddColumn(Column{def.name, type, def.not_null});
  }
  if (!stmt->partition_method.empty()) {
    // Validate the partition clause against the schema before creating
    // anything, so a bad clause leaves no half-made table behind.
    bool range = stmt->partition_method == "RANGE";
    int c = schema.FindColumn(stmt->partition_column);
    if (c < 0) {
      return Status::NotFound("no partition key column " +
                              stmt->partition_column + " in " + stmt->table);
    }
    if (stmt->partitions.empty()) {
      return Status::InvalidArgument(
          "partitioned table needs at least one partition");
    }
    for (size_t i = 0; i < stmt->partitions.size(); ++i) {
      const sql::PartitionSpec& spec = stmt->partitions[i];
      for (size_t j = 0; j < i; ++j) {
        if (EqualsIgnoreCase(stmt->partitions[j].name, spec.name)) {
          return Status::AlreadyExists("duplicate partition name " +
                                       spec.name);
        }
      }
      if (!range) continue;
      if (spec.maxvalue && i + 1 != stmt->partitions.size()) {
        return Status::InvalidArgument(
            "MAXVALUE must be the last partition bound");
      }
      if (i > 0 && !spec.maxvalue &&
          TotalOrderCompare(stmt->partitions[i - 1].bound, spec.bound) >= 0) {
        return Status::InvalidArgument(
            "partition bounds must be strictly increasing (" + spec.name +
            ")");
      }
    }
    EXI_RETURN_IF_ERROR(db_->catalog().CreateTable(stmt->table, schema));
    EXI_ASSIGN_OR_RETURN(TableInfo * info,
                         db_->catalog().GetTableInfo(stmt->table));
    PartitionScheme scheme;
    scheme.method = range ? PartitionMethod::kRange : PartitionMethod::kHash;
    scheme.key_column = schema.column(c).name;
    scheme.key_index = size_t(c);
    for (const sql::PartitionSpec& spec : stmt->partitions) {
      PartitionDef def;
      def.name = spec.name;
      // Every partition gets its own segment; the implicit segment 0 stays
      // empty so any partition — including the first — can be dropped.
      def.segment_id = info->heap->AddSegment();
      if (range && !spec.maxvalue) def.upper_bound = spec.bound;
      scheme.partitions.push_back(std::move(def));
    }
    info->partitioning = std::move(scheme);
    QueryResult r;
    r.message = "table created: " + stmt->table + " (" +
                stmt->partition_method + " partitioned by " +
                stmt->partition_column + ", " +
                std::to_string(stmt->partitions.size()) + " partitions)";
    return r;
  }
  EXI_RETURN_IF_ERROR(db_->catalog().CreateTable(stmt->table, schema));
  QueryResult r;
  r.message = "table created: " + stmt->table;
  return r;
}

Result<QueryResult> Connection::RunAlterTable(sql::AlterTableStmt* stmt) {
  QueryResult r;
  switch (stmt->action) {
    case sql::AlterTableStmt::Action::kAddPartition: {
      std::optional<Value> bound;
      if (stmt->partition.maxvalue) {
        // bound stays empty: the MAXVALUE catch-all.
      } else if (!stmt->partition.bound.is_null()) {
        bound = stmt->partition.bound;
      } else {
        return Status::InvalidArgument(
            "ADD PARTITION requires VALUES LESS THAN (...)");
      }
      EXI_RETURN_IF_ERROR(db_->AddPartition(stmt->table, stmt->partition.name,
                                            std::move(bound), nullptr));
      r.message = "partition added: " + stmt->partition.name + " on " +
                  stmt->table;
      return r;
    }
    case sql::AlterTableStmt::Action::kDropPartition:
      EXI_RETURN_IF_ERROR(
          db_->DropPartition(stmt->table, stmt->partition.name, nullptr));
      r.message = "partition dropped: " + stmt->partition.name + " from " +
                  stmt->table;
      return r;
    case sql::AlterTableStmt::Action::kTruncatePartition:
      EXI_RETURN_IF_ERROR(
          db_->TruncatePartition(stmt->table, stmt->partition.name, nullptr));
      r.message = "partition truncated: " + stmt->partition.name + " on " +
                  stmt->table;
      return r;
  }
  return Status::Internal("unhandled ALTER TABLE action");
}

Result<QueryResult> Connection::RunCreateIndex(sql::CreateIndexStmt* stmt) {
  if (!stmt->indextype.empty()) {
    // Domain index: one indexed column (Oracle8i domain indexes are
    // single-column).
    if (stmt->columns.size() != 1) {
      return Status::NotSupported(
          "domain indexes support exactly one column");
    }
    EXI_RETURN_IF_ERROR(db_->domains().CreateIndex(
        stmt->index, stmt->table, stmt->columns[0], stmt->indextype,
        stmt->parameters, nullptr));
    QueryResult r;
    r.message = "domain index created: " + stmt->index + " (indextype " +
                stmt->indextype + ")";
    return r;
  }
  // Built-in index.
  EXI_ASSIGN_OR_RETURN(HeapTable * table,
                       db_->catalog().GetTable(stmt->table));
  auto info = std::make_unique<IndexInfo>();
  info->name = stmt->index;
  info->table = stmt->table;
  std::vector<size_t> columns;
  for (const std::string& col : stmt->columns) {
    int c = table->schema().FindColumn(col);
    if (c < 0) {
      return Status::NotFound("no column " + col + " in " + stmt->table);
    }
    const DataType& t = table->schema().column(c).type;
    if (!t.is_scalar()) {
      return Status::InvalidArgument(
          "built-in indexes apply only to scalar columns; column " + col +
          " is " + t.ToString() + " (define an indextype instead, §3.1)");
    }
    info->columns.push_back(table->schema().column(c).name);
    columns.push_back(size_t(c));
  }
  info->builtin = std::make_unique<BTreeIndex>(stmt->index, table->schema(),
                                               std::move(columns));
  // Backfill from existing rows, as one sorted bulk load.  Each row read
  // is metered, as a domain index build's ScanBaseTable meters it.
  std::vector<Row> entries;
  for (auto it = table->Scan(); it.Valid(); it.Next()) {
    info->builtin->AddEntry(it.row_id(), it.row(), &entries);
  }
  GlobalMetrics().table_rows_read += table->row_count();
  EXI_RETURN_IF_ERROR(info->builtin->BulkLoad(std::move(entries)));
  EXI_RETURN_IF_ERROR(db_->catalog().AddIndex(std::move(info)));
  QueryResult r;
  r.message = "index created: " + stmt->index;
  return r;
}

Result<QueryResult> Connection::RunCreateOperator(
    sql::CreateOperatorStmt* stmt) {
  OperatorDef def;
  def.name = stmt->name;
  for (const sql::OperatorBindingDef& b : stmt->bindings) {
    OperatorBinding binding;
    for (const std::string& t : b.arg_types) {
      EXI_ASSIGN_OR_RETURN(DataType dt, DataType::FromString(t));
      binding.arg_types.push_back(dt);
    }
    EXI_ASSIGN_OR_RETURN(binding.return_type,
                         DataType::FromString(b.return_type));
    binding.function_name = b.function;
    def.bindings.push_back(std::move(binding));
  }
  EXI_RETURN_IF_ERROR(db_->catalog().CreateOperator(std::move(def)));
  QueryResult r;
  r.message = "operator created: " + stmt->name;
  return r;
}

Result<QueryResult> Connection::RunCreateIndexType(
    sql::CreateIndexTypeStmt* stmt) {
  IndexTypeDef def;
  def.name = stmt->name;
  for (const sql::IndexTypeOpDef& op : stmt->operators) {
    SupportedOperator so;
    so.operator_name = op.op;
    for (const std::string& t : op.arg_types) {
      EXI_ASSIGN_OR_RETURN(DataType dt, DataType::FromString(t));
      so.arg_types.push_back(dt);
    }
    def.operators.push_back(std::move(so));
  }
  def.implementation = stmt->implementation;
  EXI_RETURN_IF_ERROR(db_->catalog().CreateIndexType(std::move(def)));
  QueryResult r;
  r.message = "indextype created: " + stmt->name;
  return r;
}

Result<QueryResult> Connection::RunInsert(sql::InsertStmt* stmt) {
  return WithStatementTxn([&](Transaction* txn) -> Result<QueryResult> {
    EXI_ASSIGN_OR_RETURN(HeapTable * table,
                         db_->catalog().GetTable(stmt->table));
    const Schema& schema = table->schema();
    Binder binder(&db_->catalog());

    // Map column names to schema positions (empty list = positional).
    std::vector<int> positions;
    if (stmt->columns.empty()) {
      for (size_t i = 0; i < schema.size(); ++i) positions.push_back(int(i));
    } else {
      for (const std::string& col : stmt->columns) {
        int c = schema.FindColumn(col);
        if (c < 0) {
          return Status::NotFound("no column " + col + " in " + stmt->table);
        }
        positions.push_back(c);
      }
    }

    std::vector<Row> rows;
    rows.reserve(stmt->rows.size());
    for (auto& exprs : stmt->rows) {
      if (exprs.size() != positions.size()) {
        return Status::InvalidArgument(
            "VALUES arity does not match column list");
      }
      Row row(schema.size(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        EXI_RETURN_IF_ERROR(binder.BindConstant(exprs[i].get()));
        EXI_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*exprs[i], {}));
        row[positions[i]] = std::move(v);
      }
      rows.push_back(std::move(row));
    }
    // Multi-row VALUES lists coalesce domain-index maintenance into one
    // batched ODCI dispatch per index slice (Database::InsertRows).
    uint64_t inserted = rows.size();
    if (!rows.empty()) {
      EXI_RETURN_IF_ERROR(
          db_->InsertRows(stmt->table, std::move(rows), txn).status());
    }
    QueryResult r;
    r.affected_rows = inserted;
    r.message = std::to_string(inserted) + " row(s) inserted";
    return r;
  });
}

Result<std::vector<std::pair<RowId, Row>>> Connection::CollectMatches(
    const std::string& table_name, sql::Expr* where) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table,
                       db_->catalog().GetTable(table_name));
  Binder binder(&db_->catalog());
  std::vector<BoundTable> tables = {
      BoundTable{table->name(), table_name, &table->schema(), 0}};
  if (where != nullptr) {
    EXI_RETURN_IF_ERROR(binder.Bind(where, tables));
  }
  std::vector<std::pair<RowId, Row>> matches;
  for (auto it = table->Scan(); it.Valid(); it.Next()) {
    if (where != nullptr) {
      EXI_ASSIGN_OR_RETURN(bool pass,
                           Evaluator::EvalPredicate(*where, it.row()));
      if (!pass) continue;
    }
    matches.emplace_back(it.row_id(), it.row());
  }
  return matches;
}

Result<QueryResult> Connection::RunUpdate(sql::UpdateStmt* stmt) {
  return WithStatementTxn([&](Transaction* txn) -> Result<QueryResult> {
    EXI_ASSIGN_OR_RETURN(HeapTable * table,
                         db_->catalog().GetTable(stmt->table));
    const Schema& schema = table->schema();
    Binder binder(&db_->catalog());
    std::vector<BoundTable> tables = {
        BoundTable{table->name(), stmt->table, &schema, 0}};

    std::vector<std::pair<int, sql::Expr*>> sets;
    for (auto& [col, expr] : stmt->assignments) {
      int c = schema.FindColumn(col);
      if (c < 0) {
        return Status::NotFound("no column " + col + " in " + stmt->table);
      }
      EXI_RETURN_IF_ERROR(binder.Bind(expr.get(), tables));
      sets.emplace_back(c, expr.get());
    }

    EXI_ASSIGN_OR_RETURN(auto matches,
                         CollectMatches(stmt->table, stmt->where.get()));
    std::vector<Row> new_rows;
    new_rows.reserve(matches.size());
    for (auto& [rid, old_row] : matches) {
      Row& new_row = new_rows.emplace_back(old_row);
      for (auto& [c, expr] : sets) {
        EXI_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*expr, old_row));
        new_row[c] = std::move(v);
      }
    }
    if (!matches.empty()) {
      EXI_RETURN_IF_ERROR(
          db_->UpdateRows(stmt->table, matches, new_rows, txn));
    }
    QueryResult r;
    r.affected_rows = matches.size();
    r.message = std::to_string(matches.size()) + " row(s) updated";
    return r;
  });
}

Result<QueryResult> Connection::RunDelete(sql::DeleteStmt* stmt) {
  return WithStatementTxn([&](Transaction* txn) -> Result<QueryResult> {
    EXI_ASSIGN_OR_RETURN(auto matches,
                         CollectMatches(stmt->table, stmt->where.get()));
    if (!matches.empty()) {
      EXI_RETURN_IF_ERROR(db_->DeleteRows(stmt->table, matches, txn));
    }
    QueryResult r;
    r.affected_rows = matches.size();
    r.message = std::to_string(matches.size()) + " row(s) deleted";
    return r;
  });
}

Planner Connection::MakePlanner() {
  return Planner(&db_->catalog(), &db_->domains(), db_->fetch_batch_size(),
                 db_->parallelism(), &db_->planner_stats());
}

Result<QueryResult> Connection::RunQuery(sql::SelectStmt* stmt,
                                         const sql::ExplainStmt* explain) {
  std::vector<std::string> tables;
  for (const sql::TableRef& ref : stmt->from) tables.push_back(ref.table);
  Database::SystemViewScope views(db_);
  EXI_RETURN_IF_ERROR(views.Materialize(tables));
  if (explain == nullptr) return RunSelect(stmt);
  if (explain->analyze) return RunExplainAnalyze(stmt);
  Planner planner = MakePlanner();
  EXI_ASSIGN_OR_RETURN(PlannedSelect plan, planner.PlanSelect(stmt));
  QueryResult r;
  r.message = plan.explain;
  return r;
}

Result<QueryResult> Connection::RunSelect(sql::SelectStmt* stmt) {
  Planner planner = MakePlanner();
  EXI_ASSIGN_OR_RETURN(PlannedSelect plan, planner.PlanSelect(stmt));
  QueryResult r;
  r.column_names = plan.column_names;
  EXI_RETURN_IF_ERROR(plan.root->Open());
  ExecRow row;
  bool any_ancillary = false;
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, plan.root->Next(&row));
    if (!have) break;
    r.rows.push_back(row.values);
    r.ancillary.push_back(row.ancillary);
    if (!row.ancillary.is_null()) any_ancillary = true;
  }
  EXI_RETURN_IF_ERROR(plan.root->Close());
  if (!any_ancillary) r.ancillary.clear();
  r.affected_rows = r.rows.size();
  return r;
}

Result<QueryResult> Connection::RunExplainAnalyze(sql::SelectStmt* stmt) {
  // Snapshot the ODCI window before planning: ODCIStatsSelectivity /
  // ODCIStatsIndexCost fire while the planner prices domain access paths,
  // and those dispatches belong to this statement.
  TracerSnapshot before = Tracer::Global().Snapshot();
  StorageMetrics storage_before = GlobalMetrics().Snapshot();
  int64_t t0 = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();

  Planner planner = MakePlanner();
  EXI_ASSIGN_OR_RETURN(PlannedSelect plan, planner.PlanSelect(stmt));
  plan.root->EnableStats();

  // Execute to completion, discarding rows (Postgres EXPLAIN ANALYZE
  // semantics: the query runs for real — including DML-free side effects
  // like metric increments — but the result set is not returned).
  EXI_RETURN_IF_ERROR(plan.root->Open());
  ExecRow row;
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, plan.root->Next(&row));
    if (!have) break;
  }
  EXI_RETURN_IF_ERROR(plan.root->Close());

  int64_t total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count() -
                     t0;
  TracerSnapshot window =
      TracerDelta(Tracer::Global().Snapshot(), before);
  StorageMetrics storage_delta =
      GlobalMetrics().Snapshot().Delta(storage_before);

  std::ostringstream os;
  os << "plan:\n" << DescribePlanWithStats(*plan.root);
  if (!window.empty()) {
    os << "ODCI calls (this statement):\n";
    for (const auto& [key, stats] : window) {
      os << "  " << key.first << " [" << stats.cartridge << "] "
         << key.second << ": calls=" << stats.calls;
      if (stats.errors > 0) os << " errors=" << stats.errors;
      os << " total=" << double(stats.total_us) / 1000.0
         << " ms avg=" << stats.avg_us() << " us\n";
    }
  }
  std::string storage = storage_delta.ToCompactString();
  if (!storage.empty()) os << "storage (this statement): " << storage << "\n";
  os << "total time: " << double(total_us) / 1000.0 << " ms\n";

  QueryResult r;
  r.message = os.str();
  return r;
}

}  // namespace exi
