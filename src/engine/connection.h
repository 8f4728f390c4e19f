#ifndef EXTIDX_ENGINE_CONNECTION_H_
#define EXTIDX_ENGINE_CONNECTION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "optimizer/planner.h"
#include "sql/ast.h"

namespace exi {

// Result of one statement.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  // Ancillary values (e.g. scores from a domain-index scan), one per row
  // when the plan's scan produced them; empty otherwise.
  std::vector<Value> ancillary;
  uint64_t affected_rows = 0;
  std::string message;  // DDL acknowledgment / EXPLAIN text

  bool has_rows() const { return !column_names.empty(); }
};

// A SQL session against a Database.  Statements run under statement-level
// implicit transactions unless BEGIN opened an explicit one; DDL commits
// any open transaction first (Oracle semantics).
class Connection {
 public:
  explicit Connection(Database* db) : db_(db) {}

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Parses and executes one statement.
  Result<QueryResult> Execute(const std::string& sql);

  // Executes a ';'-separated script; returns the last statement's result.
  Result<QueryResult> ExecuteScript(const std::string& sql);

  // Convenience: executes and asserts success, for setup code.
  QueryResult MustExecute(const std::string& sql);

  Database* db() { return db_; }

  // Session knob: degree of parallelism for domain-index join probes
  // (DESIGN.md §5).  Forwards to the database; 1 = strictly serial.
  void set_parallelism(size_t n) { db_->set_parallelism(n); }
  size_t parallelism() const { return db_->parallelism(); }

 private:
  Result<QueryResult> Dispatch(sql::Statement* stmt);

  Result<QueryResult> RunCreateTable(sql::CreateTableStmt* stmt);
  // ALTER TABLE ... ADD | DROP | TRUNCATE PARTITION (DESIGN.md §7).
  Result<QueryResult> RunAlterTable(sql::AlterTableStmt* stmt);
  Result<QueryResult> RunCreateIndex(sql::CreateIndexStmt* stmt);
  Result<QueryResult> RunCreateOperator(sql::CreateOperatorStmt* stmt);
  Result<QueryResult> RunCreateIndexType(sql::CreateIndexTypeStmt* stmt);
  Result<QueryResult> RunInsert(sql::InsertStmt* stmt);
  Result<QueryResult> RunUpdate(sql::UpdateStmt* stmt);
  Result<QueryResult> RunDelete(sql::DeleteStmt* stmt);
  // SELECT (explain null), EXPLAIN or EXPLAIN ANALYZE of `stmt`: the one
  // place a statement's system views are materialized, and dropped again
  // when it returns.
  Result<QueryResult> RunQuery(sql::SelectStmt* stmt,
                               const sql::ExplainStmt* explain);
  Result<QueryResult> RunSelect(sql::SelectStmt* stmt);
  // EXPLAIN ANALYZE: executes the plan with per-node stats collection and
  // renders actual rows/loops/time, the statement's ODCI-call window, and
  // its storage-counter delta.  Result rows are discarded.
  Result<QueryResult> RunExplainAnalyze(sql::SelectStmt* stmt);

  // The statement's planner, configured from the database's session knobs.
  Planner MakePlanner();

  // Runs `body` inside a statement-level transaction: commits an implicit
  // transaction on success, rolls back the statement's mutations on error.
  Result<QueryResult> WithStatementTxn(
      const std::function<Result<QueryResult>(Transaction*)>& body);

  // Commits any open transaction (DDL boundary).
  Status CommitBeforeDdl();

  // Collects (rid, row) pairs matching a WHERE clause over one table.
  Result<std::vector<std::pair<RowId, Row>>> CollectMatches(
      const std::string& table_name, sql::Expr* where);

  Database* db_;
};

}  // namespace exi

#endif  // EXTIDX_ENGINE_CONNECTION_H_
