#ifndef EXTIDX_SQL_AST_H_
#define EXTIDX_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/operator_registry.h"
#include "types/datatype.h"
#include "types/value.h"

namespace exi::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,   // [qualifier.]column[.attr...]
  kBinary,
  kUnary,
  kFunctionCall,  // built-in function or user-defined operator
  kIsNull,        // expr IS [NOT] NULL
  kLike,          // expr [NOT] LIKE pattern
  kAggregate,     // COUNT/SUM/MIN/MAX/AVG (no GROUP BY; whole-result)
  kStar,          // `*` in a select list
};

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr,
};

enum class UnaryOp { kNot, kNeg };

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

// What the binder resolved a kFunctionCall to.
enum class CallKind {
  kNone,      // not a call, or not yet bound
  kOperator,  // a user-defined operator's chosen binding (§2.2.2)
  kFunction,  // a registered plain function
  kBuiltin,   // lower / upper / length / abs
  kScore,     // the Score() pseudo-function: the row's domain-index
              // ancillary value (§2.4.2 ancillary operators)
};

const char* BinaryOpName(BinaryOp op);

struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string qualifier;  // table name or alias; empty if unqualified
  std::string column;
  std::vector<std::string> attr_path;  // object attribute access chain

  // kBinary / kUnary
  BinaryOp bop = BinaryOp::kEq;
  UnaryOp uop = UnaryOp::kNot;

  // kFunctionCall
  std::string function;

  // kAggregate
  AggFunc agg = AggFunc::kCount;
  bool agg_star = false;  // COUNT(*)

  // kIsNull / kLike negation (IS NOT NULL, NOT LIKE)
  bool negated = false;

  // Operands / arguments.
  std::vector<std::unique_ptr<Expr>> children;

  // ---- binder annotations ----
  int slot = -1;           // input-row slot for resolved column refs
  int attr_index = -1;     // first object-attribute index (single level)
  DataType result_type;
  CallKind call = CallKind::kNone;
  // The callable a kFunctionCall resolved to (empty for kScore).  Held by
  // value, so unregistering the function later leaves it intact.
  OperatorFunction fn;

  std::string ToString() const;

  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeBinary(BinaryOp op,
                                          std::unique_ptr<Expr> lhs,
                                          std::unique_ptr<Expr> rhs);
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kCreateTable, kDropTable, kTruncateTable, kAlterTable,
  kCreateIndex, kAlterIndex, kDropIndex,
  kCreateOperator, kDropOperator,
  kCreateIndexType, kDropIndexType,
  kAnalyze,
  kInsert, kUpdate, kDelete, kSelect,
  kBegin, kCommit, kRollback,
  kExplain,
  kSet,
};

struct Statement {
  virtual ~Statement() = default;
  explicit Statement(StmtKind k) : kind(k) {}
  StmtKind kind;
};

struct ColumnDef {
  std::string name;
  std::string type_text;  // parsed later by DataType::FromString
  bool not_null = false;
};

// One partition in a PARTITION BY clause or ALTER TABLE ... ADD PARTITION.
struct PartitionSpec {
  std::string name;
  // RANGE: the VALUES LESS THAN bound literal; maxvalue = true for the
  // MAXVALUE sentinel (bound is then ignored).  Unused for HASH.
  Value bound;
  bool maxvalue = false;
};

struct CreateTableStmt : Statement {
  CreateTableStmt() : Statement(StmtKind::kCreateTable) {}
  std::string table;
  std::vector<ColumnDef> columns;
  // PARTITION BY clause; empty method = unpartitioned.
  std::string partition_method;  // "RANGE" | "HASH"
  std::string partition_column;
  std::vector<PartitionSpec> partitions;
};

struct DropTableStmt : Statement {
  DropTableStmt() : Statement(StmtKind::kDropTable) {}
  std::string table;
};

struct TruncateTableStmt : Statement {
  TruncateTableStmt() : Statement(StmtKind::kTruncateTable) {}
  std::string table;
};

// ALTER TABLE t ADD PARTITION p VALUES LESS THAN (...)
//             | DROP PARTITION p
//             | TRUNCATE PARTITION p
struct AlterTableStmt : Statement {
  AlterTableStmt() : Statement(StmtKind::kAlterTable) {}
  enum class Action { kAddPartition, kDropPartition, kTruncatePartition };
  std::string table;
  Action action = Action::kAddPartition;
  PartitionSpec partition;
};

// CREATE INDEX name ON table(col, ...)
//   [USING BTREE]                                  -- the built-in B-tree
//   [INDEXTYPE IS typ [PARAMETERS ('...')]]        -- domain index (§2.3)
struct CreateIndexStmt : Statement {
  CreateIndexStmt() : Statement(StmtKind::kCreateIndex) {}
  std::string index;
  std::string table;
  std::vector<std::string> columns;
  std::string indextype;  // non-empty => domain index
  std::string parameters;
};

// ALTER INDEX name PARAMETERS ('...')
//           | REBUILD [PARTITION p]          -- docs/fault-tolerance.md
struct AlterIndexStmt : Statement {
  AlterIndexStmt() : Statement(StmtKind::kAlterIndex) {}
  std::string index;
  std::string parameters;
  bool rebuild = false;
  std::string partition;  // REBUILD PARTITION only
};

struct DropIndexStmt : Statement {
  DropIndexStmt() : Statement(StmtKind::kDropIndex) {}
  std::string index;
};

struct OperatorBindingDef {
  std::vector<std::string> arg_types;
  std::string return_type;
  std::string function;
};

// CREATE OPERATOR name BINDING (t1, t2) RETURN t USING fn [, BINDING ...]
struct CreateOperatorStmt : Statement {
  CreateOperatorStmt() : Statement(StmtKind::kCreateOperator) {}
  std::string name;
  std::vector<OperatorBindingDef> bindings;
};

struct DropOperatorStmt : Statement {
  DropOperatorStmt() : Statement(StmtKind::kDropOperator) {}
  std::string name;
};

struct IndexTypeOpDef {
  std::string op;
  std::vector<std::string> arg_types;
};

// CREATE INDEXTYPE name FOR op(t1, t2) [, op2(...)] USING impl
struct CreateIndexTypeStmt : Statement {
  CreateIndexTypeStmt() : Statement(StmtKind::kCreateIndexType) {}
  std::string name;
  std::vector<IndexTypeOpDef> operators;
  std::string implementation;
};

struct DropIndexTypeStmt : Statement {
  DropIndexTypeStmt() : Statement(StmtKind::kDropIndexType) {}
  std::string name;
};

struct AnalyzeStmt : Statement {
  AnalyzeStmt() : Statement(StmtKind::kAnalyze) {}
  std::string table;
};

struct InsertStmt : Statement {
  InsertStmt() : Statement(StmtKind::kInsert) {}
  std::string table;
  std::vector<std::string> columns;  // empty = positional
  std::vector<std::vector<std::unique_ptr<Expr>>> rows;
};

struct UpdateStmt : Statement {
  UpdateStmt() : Statement(StmtKind::kUpdate) {}
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> assignments;
  std::unique_ptr<Expr> where;  // may be null
};

struct DeleteStmt : Statement {
  DeleteStmt() : Statement(StmtKind::kDelete) {}
  std::string table;
  std::unique_ptr<Expr> where;  // may be null
};

struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
};

struct TableRef {
  std::string table;
  std::string alias;  // defaults to table name

  const std::string& effective_name() const {
    return alias.empty() ? table : alias;
  }
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool ascending = true;
};

struct SelectStmt : Statement {
  SelectStmt() : Statement(StmtKind::kSelect) {}
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<Expr> where;  // may be null
  std::vector<std::unique_ptr<Expr>> group_by;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
};

struct BeginStmt : Statement {
  BeginStmt() : Statement(StmtKind::kBegin) {}
};
struct CommitStmt : Statement {
  CommitStmt() : Statement(StmtKind::kCommit) {}
};
struct RollbackStmt : Statement {
  RollbackStmt() : Statement(StmtKind::kRollback) {}
};

struct ExplainStmt : Statement {
  ExplainStmt() : Statement(StmtKind::kExplain) {}
  std::unique_ptr<Statement> inner;
  // EXPLAIN ANALYZE: execute the inner statement and annotate the plan
  // with per-node actuals and the statement's ODCI-call window.
  bool analyze = false;
};

// Session settings (docs/fault-tolerance.md):
//   SET FAILPOINT '<site>' = '<spec>'   -- arm a fail-point ('off' disarms)
//   SET FAILPOINT '<site>' = OFF
//   SET INDEX_MAINTENANCE = STRICT | DEFERRED
struct SetStmt : Statement {
  SetStmt() : Statement(StmtKind::kSet) {}
  enum class Target { kFailPoint, kIndexMaintenance };
  Target target = Target::kFailPoint;
  std::string name;   // fail-point site name (kFailPoint only)
  std::string value;  // fail-point spec / policy word
};

}  // namespace exi::sql

#endif  // EXTIDX_SQL_AST_H_
