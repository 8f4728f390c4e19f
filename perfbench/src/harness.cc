#include "harness.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "optimizer/planner.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace perfbench {

const char* OpKindName(OpKind kind) {
  static const char* const kNames[] = {
      "query",       "dml",        "begin",          "commit",
      "rollback",    "index_build", "index_drop",    "partition_add",
      "partition_drop"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == size_t(OpKind::kCount));
  return kNames[int(kind)];
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(p * double(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

// Adds the enclosed wall time to Measurements::excluded_ns.
class ExcludedScope {
 public:
  explicit ExcludedScope(Measurements* m) : m_(m), start_(NowNs()) {}
  ~ExcludedScope() { m_->excluded_ns += NowNs() - start_; }
  ExcludedScope(const ExcludedScope&) = delete;
  ExcludedScope& operator=(const ExcludedScope&) = delete;

 private:
  Measurements* m_;
  int64_t start_;
};

// Turns the kit's recording off for the enclosed scope.
class RecordingOff {
 public:
  explicit RecordingOff(TraceKit* kit)
      : kit_(kit), was_(kit != nullptr && kit->enabled()) {
    if (was_) kit_->set_enabled(false);
  }
  ~RecordingOff() {
    if (was_) kit_->set_enabled(true);
  }
  RecordingOff(const RecordingOff&) = delete;
  RecordingOff& operator=(const RecordingOff&) = delete;

 private:
  TraceKit* kit_;
  bool was_;
};

std::vector<int64_t> Ids(const exi::QueryResult& r) {
  std::vector<int64_t> ids;
  ids.reserve(r.rows.size());
  for (const exi::Row& row : r.rows) ids.push_back(row[0].AsInteger());
  return ids;
}

// Adds the counters the benchmark reports from `d` to `into`.
void AddCounts(exi::StorageMetrics* into, const exi::StorageMetrics& d) {
  into->table_rows_read += d.table_rows_read;
  into->table_rows_written += d.table_rows_written;
  into->table_rows_deleted += d.table_rows_deleted;
  into->index_nodes_read += d.index_nodes_read;
  into->index_entries_written += d.index_entries_written;
  into->odci_start_calls += d.odci_start_calls;
  into->odci_fetch_calls += d.odci_fetch_calls;
  into->odci_close_calls += d.odci_close_calls;
  into->odci_maintenance_calls += d.odci_maintenance_calls;
  into->partitions_pruned += d.partitions_pruned;
  into->partitions_scanned += d.partitions_scanned;
}

const char* SpanNameFor(OpKind kind) {
  switch (kind) {
    case OpKind::kBegin: return "txn.begin";
    case OpKind::kIndexBuild:
    case OpKind::kIndexDrop: return "engine.index_ddl";
    default: return "engine.dml";
  }
}

}  // namespace

Session::Session(const Options& options, TraceKit* kit)
    : options_(options), kit_(kit), conn_(&db_) {}

exi::Result<exi::QueryResult> Session::Run(OpKind kind,
                                           const std::string& sql) {
  exi::StorageMetrics before;
  if (measuring_) before = exi::GlobalMetrics().Snapshot();
  int64_t t0 = NowNs();
  exi::Result<exi::QueryResult> result =
      kit_ != nullptr && kit_->enabled() ? RunTraced(kind, sql)
                                         : conn_.Execute(sql);
  int64_t t1 = NowNs();
  last_latency_ms_ = double(t1 - t0) / 1e6;
  if (!measuring_) return result;

  ++m_.attempted;
  if (!result.ok()) {
    ++m_.errors;
    std::fprintf(stderr, "statement failed: %s\n  SQL: %.200s\n",
                 result.status().ToString().c_str(), sql.c_str());
    return result;
  }
  m_.latency_ms[int(kind)].push_back(last_latency_ms_);
  bool cycle = kind == OpKind::kIndexBuild || kind == OpKind::kIndexDrop;
  if (cycle) m_.cycle_ns += t1 - t0;
  exi::StorageMetrics d = exi::GlobalMetrics().Snapshot().Delta(before);
  AddCounts(&m_.storage, d);
  if (kind == OpKind::kQuery) {
    m_.query_rows_read += d.table_rows_read;
    m_.query_rows_out += result.value().rows.size();
  }
  if (!cycle && m_.counted_statements < m_.counted_limit) {
    AddCounts(&m_.counted, d);
    ++m_.counted_statements;
  }
  return result;
}

// The traced path takes the same steps as Connection::Execute, split so each
// layer gets its own span: sql::Parse, then for SELECT Planner::PlanSelect
// and the root's Open/Next/Close (as Connection::RunSelect does), for
// COMMIT/ROLLBACK the transaction manager, for partition DDL the Database
// partition calls, and for everything else Execute itself (which parses the
// text again; the separate parse span is what sql.parse_us reports).
exi::Result<exi::QueryResult> Session::RunTraced(OpKind kind,
                                                 const std::string& sql) {
  kit_->BeginStatement();
  SpanScope root(kit_, "statement");
  kit_->set_in_build(kind == OpKind::kIndexBuild ||
                     kind == OpKind::kPartitionAdd);
  struct BuildReset {
    TraceKit* kit;
    ~BuildReset() { kit->set_in_build(false); }
  } build_reset{kit_};

  std::unique_ptr<exi::sql::Statement> stmt;
  {
    SpanScope span(kit_, "sql.parse");
    EXI_ASSIGN_OR_RETURN(stmt, exi::sql::Parse(sql));
  }

  exi::QueryResult r;
  switch (stmt->kind) {
    case exi::sql::StmtKind::kSelect: {
      auto* select = static_cast<exi::sql::SelectStmt*>(stmt.get());
      exi::Planner planner(&db_.catalog(), &db_.domains(),
                           db_.fetch_batch_size(), db_.parallelism(),
                           &db_.planner_stats());
      exi::PlannedSelect plan;
      {
        SpanScope span(kit_, "optimizer.plan");
        EXI_ASSIGN_OR_RETURN(plan, planner.PlanSelect(select));
      }
      r.column_names = plan.column_names;
      {
        SpanScope span(kit_, "exec.open");
        EXI_RETURN_IF_ERROR(plan.root->Open());
      }
      {
        SpanScope span(kit_, "exec.next");
        exi::ExecRow row;
        while (true) {
          EXI_ASSIGN_OR_RETURN(bool have, plan.root->Next(&row));
          if (!have) break;
          r.rows.push_back(row.values);
        }
      }
      {
        // Plan and statement teardown happen here too, so the layer spans
        // cover the whole statement.
        SpanScope span(kit_, "exec.close");
        EXI_RETURN_IF_ERROR(plan.root->Close());
        plan = exi::PlannedSelect{};
        stmt.reset();
      }
      r.affected_rows = r.rows.size();
      return r;
    }
    case exi::sql::StmtKind::kCommit: {
      SpanScope span(kit_, "txn.commit");
      EXI_RETURN_IF_ERROR(db_.txns().Commit());
      return r;
    }
    case exi::sql::StmtKind::kRollback: {
      SpanScope span(kit_, "txn.rollback");
      EXI_RETURN_IF_ERROR(db_.txns().Rollback());
      return r;
    }
    case exi::sql::StmtKind::kAlterTable: {
      auto* alter = static_cast<exi::sql::AlterTableStmt*>(stmt.get());
      using Action = exi::sql::AlterTableStmt::Action;
      if (alter->action == Action::kAddPartition) {
        SpanScope span(kit_, "catalog.partition_add");
        std::optional<exi::Value> bound;
        if (!alter->partition.maxvalue) bound = alter->partition.bound;
        EXI_RETURN_IF_ERROR(db_.AddPartition(alter->table,
                                             alter->partition.name,
                                             std::move(bound), nullptr));
        db_.planner_stats().InvalidateTable(alter->table);
        return r;
      }
      if (alter->action == Action::kDropPartition) {
        SpanScope span(kit_, "catalog.partition_drop");
        EXI_RETURN_IF_ERROR(
            db_.DropPartition(alter->table, alter->partition.name, nullptr));
        db_.planner_stats().InvalidateTable(alter->table);
        return r;
      }
      break;
    }
    default:
      break;
  }
  SpanScope span(kit_, SpanNameFor(kind));
  return conn_.Execute(sql);
}

exi::Status Session::Untimed(const std::string& sql) {
  exi::Status s = Unmeasured([&] { return conn_.Execute(sql).status(); });
  if (!s.ok()) {
    std::fprintf(stderr, "  SQL: %.200s\n", sql.c_str());
  }
  return s;
}

exi::Status Session::Unmeasured(const std::function<exi::Status()>& work) {
  ExcludedScope excluded(&m_);
  RecordingOff off(kit_);
  exi::Status s = work();
  if (!s.ok()) {
    ++m_.errors;
    std::fprintf(stderr, "unmeasured step failed: %s\n",
                 s.ToString().c_str());
  }
  return s;
}

void Session::Check(const exi::QueryResult& got,
                    const std::string& indexed_sql,
                    const std::string& shadow_sql, size_t limit) {
  ExcludedScope excluded(&m_);
  RecordingOff off(kit_);
  ++m_.checks;
  exi::Result<exi::QueryResult> ref = conn_.Execute(shadow_sql);
  if (!ref.ok()) {
    ++m_.wrong;
    std::fprintf(stderr, "check query failed: %s\n  SQL: %.200s\n",
                 ref.status().ToString().c_str(), shadow_sql.c_str());
    return;
  }
  std::vector<int64_t> want = Ids(ref.value());
  std::vector<int64_t> have = Ids(got);
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  bool ok;
  if (limit > 0) {
    std::unordered_set<int64_t> allowed(want.begin(), want.end());
    ok = have.size() == std::min(limit, want.size()) &&
         std::adjacent_find(have.begin(), have.end()) == have.end() &&
         std::all_of(have.begin(), have.end(),
                     [&](int64_t id) { return allowed.count(id) > 0; });
  } else {
    ok = have == want;
  }
  if (!ok) {
    ++m_.wrong;
    std::fprintf(stderr, "wrong rows (%zu, reference %zu): %.200s\n",
                 have.size(), want.size(), indexed_sql.c_str());
  }
  if (kit_ == nullptr) return;
  exi::Result<exi::QueryResult> untraced = conn_.Execute(indexed_sql);
  std::vector<int64_t> plain;
  if (untraced.ok()) plain = Ids(untraced.value());
  std::sort(plain.begin(), plain.end());
  if (!untraced.ok() || plain != have) {
    ++m_.trace_mismatches;
    std::fprintf(stderr, "traced rows differ from untraced rows: %.200s\n",
                 indexed_sql.c_str());
  }
}

}  // namespace perfbench
