#include "sql/parser.h"

#include <functional>

#include "common/strings.h"
#include "sql/lexer.h"

namespace exi::sql {

namespace {

// Recursive-descent parser over the token stream.  Errors carry the byte
// offset of the offending token.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> ParseStatement();

  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  void SkipSemicolons() {
    while (Peek().IsOperator(";")) Advance();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchOperator(const char* op) {
    if (Peek().IsOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) {
      return Error(std::string("expected ") + kw);
    }
    return Status::OK();
  }
  Status ExpectOperator(const char* op) {
    if (!MatchOperator(op)) {
      return Error(std::string("expected '") + op + "'");
    }
    return Status::OK();
  }

  // Keywords the grammar only uses in positions that can never collide
  // with a name, so they stay legal as ordinary column / alias / table
  // identifiers (the performance views expose an `indextype` column, and
  // user tables may use words like `partition` or `values` too).  Keyword
  // tokens carry upper-cased text; name resolution is case-insensitive,
  // so that is harmless.
  static bool IsNonReservedKeyword(const Token& tok) {
    return tok.IsKeyword("INDEXTYPE") || tok.IsKeyword("OPERATOR") ||
           tok.IsKeyword("BINDING") || tok.IsKeyword("PARAMETERS") ||
           tok.IsKeyword("PARTITION") || tok.IsKeyword("VALUES");
  }
  // True when the next token can serve as a name.
  bool PeekName() const {
    return Peek().type == TokenType::kIdentifier ||
           IsNonReservedKeyword(Peek());
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (!PeekName()) {
      return Error(std::string("expected ") + what);
    }
    return Advance().text;
  }

  // Contextual (unreserved) word: matches an identifier or keyword spelled
  // `word`, case-insensitively.  Used for clause words like RANGE / HASH /
  // LESS / THAN / MAXVALUE that are not worth reserving in the lexer.
  bool MatchWord(const char* word) {
    const Token& t = Peek();
    if ((t.type == TokenType::kIdentifier ||
         t.type == TokenType::kKeyword) &&
        EqualsIgnoreCase(t.text, word)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().position) + " (near '" +
                              Peek().text + "')");
  }

  // A possibly schema-qualified name ("Ordsys.Contains"); the schema part
  // is accepted and dropped (single-schema engine).
  Result<std::string> ParseQualifiedName(const char* what) {
    EXI_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier(what));
    while (Peek().IsOperator(".") &&
           Peek(1).type == TokenType::kIdentifier) {
      Advance();
      name = Advance().text;
    }
    return name;
  }

  // ---- type text ----
  Result<std::string> ParseTypeText();

  // ---- statements ----
  Result<std::unique_ptr<Statement>> ParseCreate();
  Result<std::unique_ptr<Statement>> ParseCreateTable();
  Result<std::unique_ptr<Statement>> ParseCreateIndex();
  Result<std::unique_ptr<Statement>> ParseCreateOperator();
  Result<std::unique_ptr<Statement>> ParseCreateIndexType();
  Result<std::unique_ptr<Statement>> ParseDrop();
  Result<std::unique_ptr<Statement>> ParseAlter();
  Result<std::unique_ptr<Statement>> ParseAlterTable();
  Status ParsePartitionClause(CreateTableStmt* stmt);
  // VALUES LESS THAN ( <literal> | MAXVALUE )
  Status ParseValuesLessThan(PartitionSpec* spec);
  Result<Value> ParseBoundLiteral();
  Result<std::unique_ptr<Statement>> ParseTruncate();
  Result<std::unique_ptr<Statement>> ParseSelect();
  Result<std::unique_ptr<Statement>> ParseInsert();
  Result<std::unique_ptr<Statement>> ParseUpdate();
  Result<std::unique_ptr<Statement>> ParseDelete();
  Result<std::unique_ptr<Statement>> ParseAnalyze();
  Result<std::unique_ptr<Statement>> ParseExplain();
  Result<std::unique_ptr<Statement>> ParseSet();

  Result<std::string> ParseParametersClause();

  // ---- expressions (precedence climbing) ----
  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }
  Result<std::unique_ptr<Expr>> ParseOr();
  Result<std::unique_ptr<Expr>> ParseAnd();
  Result<std::unique_ptr<Expr>> ParseNot();
  Result<std::unique_ptr<Expr>> ParseComparison();
  Result<std::unique_ptr<Expr>> ParseAdditive();
  Result<std::unique_ptr<Expr>> ParseMultiplicative();
  Result<std::unique_ptr<Expr>> ParseUnary();
  Result<std::unique_ptr<Expr>> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<std::string> Parser::ParseTypeText() {
  // Forms: NAME | NAME(INT) | VARRAY OF NAME | OBJECT NAME
  const Token& t = Peek();
  if (t.IsKeyword("VARRAY")) {
    Advance();
    EXI_RETURN_IF_ERROR(ExpectKeyword("OF"));
    if (Peek().type != TokenType::kIdentifier &&
        Peek().type != TokenType::kKeyword) {
      return Error("expected VARRAY element type");
    }
    return "VARRAY OF " + Advance().text;
  }
  if (t.IsKeyword("OBJECT")) {
    Advance();
    EXI_ASSIGN_OR_RETURN(std::string name,
                         ExpectIdentifier("object type name"));
    return "OBJECT " + name;
  }
  if (t.type != TokenType::kIdentifier && t.type != TokenType::kKeyword) {
    return Error("expected a type name");
  }
  std::string text = Advance().text;
  if (Peek().IsOperator("(")) {
    Advance();
    if (Peek().type != TokenType::kInteger) {
      return Error("expected length in type");
    }
    text += "(" + Advance().text + ")";
    EXI_RETURN_IF_ERROR(ExpectOperator(")"));
  }
  return text;
}

Result<std::unique_ptr<Statement>> Parser::ParseStatement() {
  const Token& t = Peek();
  if (t.type != TokenType::kKeyword) {
    return Error("expected a statement keyword");
  }
  if (t.text == "CREATE") return ParseCreate();
  if (t.text == "DROP") return ParseDrop();
  if (t.text == "ALTER") return ParseAlter();
  if (t.text == "TRUNCATE") return ParseTruncate();
  if (t.text == "SELECT") return ParseSelect();
  if (t.text == "INSERT") return ParseInsert();
  if (t.text == "UPDATE") return ParseUpdate();
  if (t.text == "DELETE") return ParseDelete();
  if (t.text == "ANALYZE") return ParseAnalyze();
  if (t.text == "EXPLAIN") return ParseExplain();
  if (t.text == "SET") return ParseSet();
  if (t.text == "BEGIN") {
    Advance();
    return std::unique_ptr<Statement>(new BeginStmt());
  }
  if (t.text == "COMMIT") {
    Advance();
    return std::unique_ptr<Statement>(new CommitStmt());
  }
  if (t.text == "ROLLBACK") {
    Advance();
    return std::unique_ptr<Statement>(new RollbackStmt());
  }
  return Error("unsupported statement: " + t.text);
}

Result<std::unique_ptr<Statement>> Parser::ParseCreate() {
  Advance();  // CREATE
  if (Peek().IsKeyword("TABLE")) return ParseCreateTable();
  if (Peek().IsKeyword("INDEX")) return ParseCreateIndex();
  if (Peek().IsKeyword("OPERATOR")) return ParseCreateOperator();
  if (Peek().IsKeyword("INDEXTYPE")) return ParseCreateIndexType();
  return Error("expected TABLE, INDEX, OPERATOR, or INDEXTYPE after CREATE");
}

Result<std::unique_ptr<Statement>> Parser::ParseCreateTable() {
  Advance();  // TABLE
  auto stmt = std::make_unique<CreateTableStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  EXI_RETURN_IF_ERROR(ExpectOperator("("));
  while (true) {
    ColumnDef col;
    EXI_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
    EXI_ASSIGN_OR_RETURN(col.type_text, ParseTypeText());
    if (MatchKeyword("NOT")) {
      EXI_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      col.not_null = true;
    }
    stmt->columns.push_back(std::move(col));
    if (MatchOperator(",")) continue;
    break;
  }
  EXI_RETURN_IF_ERROR(ExpectOperator(")"));
  if (MatchKeyword("PARTITION")) {
    EXI_RETURN_IF_ERROR(ParsePartitionClause(stmt.get()));
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

// PARTITION BY RANGE (col) (PARTITION p VALUES LESS THAN (...), ...)
// PARTITION BY HASH (col) (PARTITION p0, PARTITION p1, ...)
// PARTITION BY HASH (col) PARTITIONS n            -- names p0 .. p<n-1>
// (the leading PARTITION keyword is already consumed)
Status Parser::ParsePartitionClause(CreateTableStmt* stmt) {
  EXI_RETURN_IF_ERROR(ExpectKeyword("BY"));
  if (MatchWord("RANGE")) {
    stmt->partition_method = "RANGE";
  } else if (MatchWord("HASH")) {
    stmt->partition_method = "HASH";
  } else {
    return Error("expected RANGE or HASH after PARTITION BY");
  }
  EXI_RETURN_IF_ERROR(ExpectOperator("("));
  EXI_ASSIGN_OR_RETURN(stmt->partition_column,
                       ExpectIdentifier("partition key column"));
  EXI_RETURN_IF_ERROR(ExpectOperator(")"));
  if (stmt->partition_method == "HASH" && MatchWord("PARTITIONS")) {
    if (Peek().type != TokenType::kInteger) {
      return Error("expected partition count after PARTITIONS");
    }
    int64_t count = Advance().int_value;
    if (count < 1) return Error("PARTITIONS count must be positive");
    for (int64_t i = 0; i < count; ++i) {
      PartitionSpec spec;
      spec.name = "p" + std::to_string(i);
      stmt->partitions.push_back(std::move(spec));
    }
    return Status::OK();
  }
  EXI_RETURN_IF_ERROR(ExpectOperator("("));
  while (true) {
    EXI_RETURN_IF_ERROR(ExpectKeyword("PARTITION"));
    PartitionSpec spec;
    EXI_ASSIGN_OR_RETURN(spec.name, ExpectIdentifier("partition name"));
    if (stmt->partition_method == "RANGE") {
      EXI_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
      EXI_RETURN_IF_ERROR(ParseValuesLessThan(&spec));
    }
    stmt->partitions.push_back(std::move(spec));
    if (MatchOperator(",")) continue;
    break;
  }
  return ExpectOperator(")");
}

Status Parser::ParseValuesLessThan(PartitionSpec* spec) {
  // The VALUES keyword is already consumed.
  if (!MatchWord("LESS") || !MatchWord("THAN")) {
    return Error("expected LESS THAN in partition bound");
  }
  EXI_RETURN_IF_ERROR(ExpectOperator("("));
  if (MatchWord("MAXVALUE")) {
    spec->maxvalue = true;
  } else {
    EXI_ASSIGN_OR_RETURN(spec->bound, ParseBoundLiteral());
  }
  return ExpectOperator(")");
}

Result<Value> Parser::ParseBoundLiteral() {
  bool neg = MatchOperator("-");
  const Token& t = Peek();
  if (t.type == TokenType::kInteger) {
    Advance();
    return Value::Integer(neg ? -t.int_value : t.int_value);
  }
  if (t.type == TokenType::kDouble) {
    Advance();
    return Value::Double(neg ? -t.double_value : t.double_value);
  }
  if (!neg && t.type == TokenType::kString) {
    Advance();
    return Value::Varchar(t.text);
  }
  return Error("expected a literal partition bound");
}

Result<std::string> Parser::ParseParametersClause() {
  // PARAMETERS ('...')
  EXI_RETURN_IF_ERROR(ExpectOperator("("));
  if (Peek().type != TokenType::kString) {
    return Error("expected a string literal in PARAMETERS");
  }
  std::string params = Advance().text;
  EXI_RETURN_IF_ERROR(ExpectOperator(")"));
  return params;
}

Result<std::unique_ptr<Statement>> Parser::ParseCreateIndex() {
  Advance();  // INDEX
  auto stmt = std::make_unique<CreateIndexStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier("index name"));
  EXI_RETURN_IF_ERROR(ExpectKeyword("ON"));
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  EXI_RETURN_IF_ERROR(ExpectOperator("("));
  while (true) {
    EXI_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    stmt->columns.push_back(std::move(col));
    if (MatchOperator(",")) continue;
    break;
  }
  EXI_RETURN_IF_ERROR(ExpectOperator(")"));
  if (MatchKeyword("USING")) {
    // The B-tree is the one built-in access method; any other is a domain
    // index.
    if (!MatchWord("BTREE")) {
      return Error("unsupported index method '" + Peek().text +
                   "': only BTREE is built in; declare other access "
                   "methods with INDEXTYPE IS");
    }
  } else if (MatchKeyword("INDEXTYPE")) {
    EXI_RETURN_IF_ERROR(ExpectKeyword("IS"));
    EXI_ASSIGN_OR_RETURN(stmt->indextype,
                         ParseQualifiedName("indextype name"));
    if (MatchKeyword("PARAMETERS")) {
      EXI_ASSIGN_OR_RETURN(stmt->parameters, ParseParametersClause());
    }
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseCreateOperator() {
  Advance();  // OPERATOR
  auto stmt = std::make_unique<CreateOperatorStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("operator name"));
  if (!Peek().IsKeyword("BINDING")) {
    return Error("expected BINDING in CREATE OPERATOR");
  }
  while (MatchKeyword("BINDING")) {
    OperatorBindingDef binding;
    EXI_RETURN_IF_ERROR(ExpectOperator("("));
    while (true) {
      EXI_ASSIGN_OR_RETURN(std::string type, ParseTypeText());
      binding.arg_types.push_back(std::move(type));
      if (MatchOperator(",")) continue;
      break;
    }
    EXI_RETURN_IF_ERROR(ExpectOperator(")"));
    EXI_RETURN_IF_ERROR(ExpectKeyword("RETURN"));
    EXI_ASSIGN_OR_RETURN(binding.return_type, ParseTypeText());
    EXI_RETURN_IF_ERROR(ExpectKeyword("USING"));
    EXI_ASSIGN_OR_RETURN(binding.function,
                         ParseQualifiedName("function name"));
    stmt->bindings.push_back(std::move(binding));
    if (!MatchOperator(",")) break;
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseCreateIndexType() {
  Advance();  // INDEXTYPE
  auto stmt = std::make_unique<CreateIndexTypeStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("indextype name"));
  EXI_RETURN_IF_ERROR(ExpectKeyword("FOR"));
  while (true) {
    IndexTypeOpDef op;
    EXI_ASSIGN_OR_RETURN(op.op, ParseQualifiedName("operator name"));
    EXI_RETURN_IF_ERROR(ExpectOperator("("));
    while (true) {
      EXI_ASSIGN_OR_RETURN(std::string type, ParseTypeText());
      op.arg_types.push_back(std::move(type));
      if (MatchOperator(",")) continue;
      break;
    }
    EXI_RETURN_IF_ERROR(ExpectOperator(")"));
    stmt->operators.push_back(std::move(op));
    if (!MatchOperator(",")) break;
  }
  EXI_RETURN_IF_ERROR(ExpectKeyword("USING"));
  EXI_ASSIGN_OR_RETURN(stmt->implementation,
                       ParseQualifiedName("implementation name"));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseDrop() {
  Advance();  // DROP
  if (MatchKeyword("TABLE")) {
    auto stmt = std::make_unique<DropTableStmt>();
    EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (MatchKeyword("INDEX")) {
    auto stmt = std::make_unique<DropIndexStmt>();
    EXI_ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier("index name"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (MatchKeyword("OPERATOR")) {
    auto stmt = std::make_unique<DropOperatorStmt>();
    EXI_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("operator name"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (MatchKeyword("INDEXTYPE")) {
    auto stmt = std::make_unique<DropIndexTypeStmt>();
    EXI_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("indextype name"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  return Error("expected TABLE, INDEX, OPERATOR, or INDEXTYPE after DROP");
}

Result<std::unique_ptr<Statement>> Parser::ParseAlter() {
  Advance();  // ALTER
  if (MatchKeyword("TABLE")) return ParseAlterTable();
  EXI_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
  auto stmt = std::make_unique<AlterIndexStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier("index name"));
  if (MatchWord("REBUILD")) {
    stmt->rebuild = true;
    if (MatchKeyword("PARTITION")) {
      EXI_ASSIGN_OR_RETURN(stmt->partition,
                           ExpectIdentifier("partition name"));
    }
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  EXI_RETURN_IF_ERROR(ExpectKeyword("PARAMETERS"));
  EXI_ASSIGN_OR_RETURN(stmt->parameters, ParseParametersClause());
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseAlterTable() {
  auto stmt = std::make_unique<AlterTableStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  if (MatchWord("ADD")) {
    stmt->action = AlterTableStmt::Action::kAddPartition;
  } else if (MatchKeyword("DROP")) {
    stmt->action = AlterTableStmt::Action::kDropPartition;
  } else if (MatchKeyword("TRUNCATE")) {
    stmt->action = AlterTableStmt::Action::kTruncatePartition;
  } else {
    return Error("expected ADD, DROP, or TRUNCATE in ALTER TABLE");
  }
  EXI_RETURN_IF_ERROR(ExpectKeyword("PARTITION"));
  EXI_ASSIGN_OR_RETURN(stmt->partition.name,
                       ExpectIdentifier("partition name"));
  if (stmt->action == AlterTableStmt::Action::kAddPartition &&
      MatchKeyword("VALUES")) {
    EXI_RETURN_IF_ERROR(ParseValuesLessThan(&stmt->partition));
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseTruncate() {
  Advance();  // TRUNCATE
  EXI_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
  auto stmt = std::make_unique<TruncateTableStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseSelect() {
  Advance();  // SELECT
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = MatchKeyword("DISTINCT");
  while (true) {
    SelectItem item;
    if (Peek().IsOperator("*")) {
      Advance();
      item.expr = std::make_unique<Expr>();
      item.expr->kind = ExprKind::kStar;
    } else {
      EXI_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        EXI_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else if (PeekName()) {
        item.alias = Advance().text;
      }
    }
    stmt->items.push_back(std::move(item));
    if (MatchOperator(",")) continue;
    break;
  }
  EXI_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  while (true) {
    TableRef ref;
    EXI_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier("table name"));
    if (PeekName()) ref.alias = Advance().text;
    stmt->from.push_back(std::move(ref));
    if (MatchOperator(",")) continue;
    break;
  }
  if (MatchKeyword("WHERE")) {
    EXI_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (MatchKeyword("GROUP")) {
    EXI_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
      if (MatchOperator(",")) continue;
      break;
    }
  }
  if (MatchKeyword("ORDER")) {
    EXI_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      OrderItem item;
      EXI_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
      if (MatchOperator(",")) continue;
      break;
    }
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().type != TokenType::kInteger) {
      return Error("expected integer after LIMIT");
    }
    stmt->limit = Advance().int_value;
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseInsert() {
  Advance();  // INSERT
  EXI_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  auto stmt = std::make_unique<InsertStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  if (Peek().IsOperator("(")) {
    Advance();
    while (true) {
      EXI_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
      if (MatchOperator(",")) continue;
      break;
    }
    EXI_RETURN_IF_ERROR(ExpectOperator(")"));
  }
  EXI_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
  while (true) {
    EXI_RETURN_IF_ERROR(ExpectOperator("("));
    std::vector<std::unique_ptr<Expr>> row;
    while (true) {
      EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      row.push_back(std::move(e));
      if (MatchOperator(",")) continue;
      break;
    }
    EXI_RETURN_IF_ERROR(ExpectOperator(")"));
    stmt->rows.push_back(std::move(row));
    if (!MatchOperator(",")) break;
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseUpdate() {
  Advance();  // UPDATE
  auto stmt = std::make_unique<UpdateStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  EXI_RETURN_IF_ERROR(ExpectKeyword("SET"));
  while (true) {
    EXI_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    EXI_RETURN_IF_ERROR(ExpectOperator("="));
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(e));
    if (MatchOperator(",")) continue;
    break;
  }
  if (MatchKeyword("WHERE")) {
    EXI_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseDelete() {
  Advance();  // DELETE
  EXI_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  auto stmt = std::make_unique<DeleteStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  if (MatchKeyword("WHERE")) {
    EXI_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseAnalyze() {
  Advance();  // ANALYZE
  MatchKeyword("TABLE");  // optional noise word
  auto stmt = std::make_unique<AnalyzeStmt>();
  EXI_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseExplain() {
  Advance();  // EXPLAIN
  auto stmt = std::make_unique<ExplainStmt>();
  stmt->analyze = MatchKeyword("ANALYZE");
  EXI_ASSIGN_OR_RETURN(stmt->inner, ParseStatement());
  return std::unique_ptr<Statement>(std::move(stmt));
}

// SET FAILPOINT '<site>' = '<spec>' | OFF
// SET INDEX_MAINTENANCE = STRICT | DEFERRED
Result<std::unique_ptr<Statement>> Parser::ParseSet() {
  Advance();  // SET
  auto stmt = std::make_unique<SetStmt>();
  if (MatchWord("FAILPOINT")) {
    stmt->target = SetStmt::Target::kFailPoint;
    if (Peek().type != TokenType::kString) {
      return Error("expected fail-point name string after SET FAILPOINT");
    }
    stmt->name = Advance().text;
    EXI_RETURN_IF_ERROR(ExpectOperator("="));
    if (MatchWord("OFF")) {
      stmt->value = "off";
    } else if (Peek().type == TokenType::kString) {
      stmt->value = Advance().text;
    } else {
      return Error("expected fail-point spec string or OFF");
    }
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (MatchWord("INDEX_MAINTENANCE")) {
    stmt->target = SetStmt::Target::kIndexMaintenance;
    EXI_RETURN_IF_ERROR(ExpectOperator("="));
    if (MatchWord("STRICT")) {
      stmt->value = "strict";
    } else if (MatchWord("DEFERRED")) {
      stmt->value = "deferred";
    } else {
      return Error("expected STRICT or DEFERRED");
    }
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  return Error("expected FAILPOINT or INDEX_MAINTENANCE after SET");
}

// ---- expressions ----

Result<std::unique_ptr<Expr>> Parser::ParseOr() {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
  while (MatchKeyword("OR")) {
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
    lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseAnd() {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
  while (MatchKeyword("AND")) {
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
    lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseNot());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kUnary;
    e->uop = UnaryOp::kNot;
    e->children.push_back(std::move(operand));
    return e;
  }
  return ParseComparison();
}

Result<std::unique_ptr<Expr>> Parser::ParseComparison() {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());
  // IS [NOT] NULL
  if (MatchKeyword("IS")) {
    bool negated = MatchKeyword("NOT");
    EXI_RETURN_IF_ERROR(ExpectKeyword("NULL"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kIsNull;
    e->negated = negated;
    e->children.push_back(std::move(lhs));
    return e;
  }
  // [NOT] LIKE / [NOT] BETWEEN
  bool negated = false;
  if (Peek().IsKeyword("NOT") &&
      (Peek(1).IsKeyword("LIKE") || Peek(1).IsKeyword("BETWEEN"))) {
    Advance();
    negated = true;
  }
  if (MatchKeyword("LIKE")) {
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> pattern, ParseAdditive());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kLike;
    e->negated = negated;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(pattern));
    return e;
  }
  if (MatchKeyword("BETWEEN")) {
    // Desugar: x BETWEEN a AND b  =>  x >= a AND x <= b.
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> low, ParseAdditive());
    EXI_RETURN_IF_ERROR(ExpectKeyword("AND"));
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> high, ParseAdditive());
    // The left side appears twice; clone via re-parse is unavailable, so
    // build with a structural copy.
    std::function<std::unique_ptr<Expr>(const Expr&)> clone =
        [&clone](const Expr& src) {
          auto dst = std::make_unique<Expr>();
          dst->kind = src.kind;
          dst->literal = src.literal;
          dst->qualifier = src.qualifier;
          dst->column = src.column;
          dst->attr_path = src.attr_path;
          dst->bop = src.bop;
          dst->uop = src.uop;
          dst->function = src.function;
          dst->agg = src.agg;
          dst->agg_star = src.agg_star;
          dst->negated = src.negated;
          for (const auto& c : src.children) {
            dst->children.push_back(clone(*c));
          }
          return dst;
        };
    auto lhs_copy = clone(*lhs);
    auto ge = Expr::MakeBinary(BinaryOp::kGe, std::move(lhs), std::move(low));
    auto le =
        Expr::MakeBinary(BinaryOp::kLe, std::move(lhs_copy), std::move(high));
    auto both =
        Expr::MakeBinary(BinaryOp::kAnd, std::move(ge), std::move(le));
    if (!negated) return both;
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kUnary;
    e->uop = UnaryOp::kNot;
    e->children.push_back(std::move(both));
    return e;
  }
  struct CmpTok {
    const char* text;
    BinaryOp op;
  };
  static const CmpTok kCmps[] = {
      {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
      {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
  };
  for (const CmpTok& cmp : kCmps) {
    if (Peek().IsOperator(cmp.text)) {
      Advance();
      EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
      return Expr::MakeBinary(cmp.op, std::move(lhs), std::move(rhs));
    }
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseAdditive() {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Peek().IsOperator("+")) {
      op = BinaryOp::kAdd;
    } else if (Peek().IsOperator("-")) {
      op = BinaryOp::kSub;
    } else {
      break;
    }
    Advance();
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseMultiplicative() {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Peek().IsOperator("*")) {
      op = BinaryOp::kMul;
    } else if (Peek().IsOperator("/")) {
      op = BinaryOp::kDiv;
    } else {
      break;
    }
    Advance();
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseUnary());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseUnary() {
  if (Peek().IsOperator("-")) {
    Advance();
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseUnary());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kUnary;
    e->uop = UnaryOp::kNeg;
    e->children.push_back(std::move(operand));
    return e;
  }
  return ParsePrimary();
}

Result<std::unique_ptr<Expr>> Parser::ParsePrimary() {
  const Token& t = Peek();
  if (t.type == TokenType::kInteger) {
    Advance();
    return Expr::MakeLiteral(Value::Integer(t.int_value));
  }
  if (t.type == TokenType::kDouble) {
    Advance();
    return Expr::MakeLiteral(Value::Double(t.double_value));
  }
  if (t.type == TokenType::kString) {
    Advance();
    return Expr::MakeLiteral(Value::Varchar(t.text));
  }
  if (t.IsKeyword("NULL")) {
    Advance();
    return Expr::MakeLiteral(Value::Null());
  }
  if (t.IsKeyword("TRUE")) {
    Advance();
    return Expr::MakeLiteral(Value::Boolean(true));
  }
  if (t.IsKeyword("FALSE")) {
    Advance();
    return Expr::MakeLiteral(Value::Boolean(false));
  }
  // Aggregates.
  struct AggTok {
    const char* kw;
    AggFunc fn;
  };
  static const AggTok kAggs[] = {{"COUNT", AggFunc::kCount},
                                 {"SUM", AggFunc::kSum},
                                 {"MIN", AggFunc::kMin},
                                 {"MAX", AggFunc::kMax},
                                 {"AVG", AggFunc::kAvg}};
  for (const AggTok& agg : kAggs) {
    if (t.IsKeyword(agg.kw)) {
      Advance();
      EXI_RETURN_IF_ERROR(ExpectOperator("("));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kAggregate;
      e->agg = agg.fn;
      if (Peek().IsOperator("*")) {
        Advance();
        e->agg_star = true;
      } else {
        EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
        e->children.push_back(std::move(arg));
      }
      EXI_RETURN_IF_ERROR(ExpectOperator(")"));
      return e;
    }
  }
  if (t.IsOperator("(")) {
    Advance();
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr());
    EXI_RETURN_IF_ERROR(ExpectOperator(")"));
    return inner;
  }
  // Non-reserved keywords (IsNonReservedKeyword) remain legal column
  // names: the grammar only uses them in positions that can never start
  // an expression.
  if (t.type == TokenType::kIdentifier || IsNonReservedKeyword(t)) {
    // name-dot chain, then maybe a call.
    std::vector<std::string> parts;
    parts.push_back(Advance().text);
    while (Peek().IsOperator(".") &&
           Peek(1).type == TokenType::kIdentifier) {
      Advance();
      parts.push_back(Advance().text);
    }
    if (Peek().IsOperator("(")) {
      // Function / user-operator call; a qualified name keeps its last
      // segment (schema prefixes are single-schema no-ops).
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kFunctionCall;
      e->function = parts.back();
      if (!Peek().IsOperator(")")) {
        while (true) {
          EXI_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
          e->children.push_back(std::move(arg));
          if (MatchOperator(",")) continue;
          break;
        }
      }
      EXI_RETURN_IF_ERROR(ExpectOperator(")"));
      return e;
    }
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kColumnRef;
    if (parts.size() == 1) {
      e->column = parts[0];
    } else {
      e->qualifier = parts[0];
      e->column = parts[1];
      e->attr_path.assign(parts.begin() + 2, parts.end());
    }
    return e;
  }
  return Error("expected an expression");
}

}  // namespace

Result<std::unique_ptr<Statement>> Parse(const std::string& text) {
  EXI_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  parser.SkipSemicolons();
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                       parser.ParseStatement());
  parser.SkipSemicolons();
  if (!parser.AtEnd()) {
    return Status::ParseError("trailing tokens after statement");
  }
  return stmt;
}

Result<std::vector<std::unique_ptr<Statement>>> ParseScript(
    const std::string& text) {
  EXI_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  std::vector<std::unique_ptr<Statement>> out;
  parser.SkipSemicolons();
  while (!parser.AtEnd()) {
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                         parser.ParseStatement());
    out.push_back(std::move(stmt));
    parser.SkipSemicolons();
  }
  return out;
}

}  // namespace exi::sql
