// Unit tests for src/sql: lexer and parser over the full DDL/DML dialect,
// including the paper's statement forms.

#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace exi::sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = *Tokenize("SELECT name, 42 3.5 'it''s' <> <= \"Quoted\"");
  ASSERT_GE(tokens.size(), 9u);
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "name");
  EXPECT_TRUE(tokens[2].IsOperator(","));
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens[4].double_value, 3.5);
  EXPECT_EQ(tokens[5].text, "it's");
  EXPECT_TRUE(tokens[6].IsOperator("<>"));
  EXPECT_TRUE(tokens[7].IsOperator("<="));
  EXPECT_EQ(tokens[8].text, "Quoted");
}

TEST(LexerTest, CommentsAndErrors) {
  auto tokens = *Tokenize("SELECT -- a comment\n 1");
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].int_value, 1);
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
  // != normalizes to <>.
  EXPECT_TRUE((*Tokenize("a != b"))[1].IsOperator("<>"));
}

TEST(ParserTest, CreateTable) {
  auto stmt = *Parse(
      "CREATE TABLE Employees(name VARCHAR(128), id INTEGER NOT NULL, "
      "resume VARCHAR(1024), hobbies VARRAY OF VARCHAR, img OBJECT IMG)");
  ASSERT_EQ(stmt->kind, StmtKind::kCreateTable);
  auto* ct = static_cast<CreateTableStmt*>(stmt.get());
  EXPECT_EQ(ct->table, "Employees");
  ASSERT_EQ(ct->columns.size(), 5u);
  EXPECT_EQ(ct->columns[0].type_text, "VARCHAR(128)");
  EXPECT_TRUE(ct->columns[1].not_null);
  EXPECT_EQ(ct->columns[3].type_text, "VARRAY OF VARCHAR");
  EXPECT_EQ(ct->columns[4].type_text, "OBJECT IMG");
}

TEST(ParserTest, CreateDomainIndexLikeThePaper) {
  auto stmt = *Parse(
      "CREATE INDEX ResumeTextIndex ON Employees(resume) "
      "INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Language English :Ignore the a an')");
  auto* ci = static_cast<CreateIndexStmt*>(stmt.get());
  EXPECT_EQ(ci->index, "ResumeTextIndex");
  EXPECT_EQ(ci->table, "Employees");
  EXPECT_EQ(ci->columns, std::vector<std::string>{"resume"});
  EXPECT_EQ(ci->indextype, "TextIndexType");
  EXPECT_EQ(ci->parameters, ":Language English :Ignore the a an");
}

TEST(ParserTest, CreateBuiltinIndexVariants) {
  auto btree_stmt = *Parse("CREATE INDEX i ON t(a, b) USING BTREE");
  auto* ci = static_cast<CreateIndexStmt*>(btree_stmt.get());
  EXPECT_EQ(ci->columns.size(), 2u);
  EXPECT_TRUE(ci->indextype.empty());
  auto plain_stmt = *Parse("CREATE INDEX i ON t(a)");
  ci = static_cast<CreateIndexStmt*>(plain_stmt.get());
  EXPECT_EQ(ci->columns.size(), 1u);
  EXPECT_TRUE(ci->indextype.empty());
  // The B-tree is the only built-in method; any other names itself in a
  // ParseError that points to INDEXTYPE IS.
  for (const char* method : {"HASH", "BITMAP", "FOO"}) {
    auto bad = Parse(std::string("CREATE INDEX i ON t(a) USING ") + method);
    ASSERT_FALSE(bad.ok()) << method;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << method;
    EXPECT_NE(bad.status().message().find(method), std::string::npos)
        << bad.status().ToString();
    EXPECT_NE(bad.status().message().find("INDEXTYPE IS"), std::string::npos)
        << bad.status().ToString();
  }
}

TEST(ParserTest, CreateOperatorWithSchemaPrefix) {
  // The paper's "CREATE OPERATOR Ordsys.Contains BINDING ...".
  auto stmt = *Parse(
      "CREATE OPERATOR Ordsys.Contains BINDING (VARCHAR, VARCHAR) RETURN "
      "NUMBER USING TextContains, BINDING (VARCHAR) RETURN BOOLEAN USING "
      "OtherFn");
  auto* co = static_cast<CreateOperatorStmt*>(stmt.get());
  EXPECT_EQ(co->name, "Contains");  // schema prefix dropped
  ASSERT_EQ(co->bindings.size(), 2u);
  EXPECT_EQ(co->bindings[0].arg_types.size(), 2u);
  EXPECT_EQ(co->bindings[0].return_type, "NUMBER");
  EXPECT_EQ(co->bindings[0].function, "TextContains");
  EXPECT_EQ(co->bindings[1].arg_types.size(), 1u);
}

TEST(ParserTest, CreateIndexType) {
  auto stmt = *Parse(
      "CREATE INDEXTYPE TextIndexType FOR Contains(VARCHAR, VARCHAR), "
      "Match(VARCHAR) USING TextIndexMethods");
  auto* it = static_cast<CreateIndexTypeStmt*>(stmt.get());
  EXPECT_EQ(it->name, "TextIndexType");
  ASSERT_EQ(it->operators.size(), 2u);
  EXPECT_EQ(it->operators[0].op, "Contains");
  EXPECT_EQ(it->operators[1].arg_types.size(), 1u);
  EXPECT_EQ(it->implementation, "TextIndexMethods");
}

TEST(ParserTest, AlterDropTruncate) {
  auto alter_stmt = *Parse("ALTER INDEX r PARAMETERS (':Ignore COBOL')");
  auto* ai = static_cast<AlterIndexStmt*>(alter_stmt.get());
  EXPECT_EQ(ai->parameters, ":Ignore COBOL");
  EXPECT_EQ((*Parse("DROP TABLE t"))->kind, StmtKind::kDropTable);
  EXPECT_EQ((*Parse("DROP INDEX i"))->kind, StmtKind::kDropIndex);
  EXPECT_EQ((*Parse("DROP OPERATOR o"))->kind, StmtKind::kDropOperator);
  EXPECT_EQ((*Parse("DROP INDEXTYPE x"))->kind, StmtKind::kDropIndexType);
  EXPECT_EQ((*Parse("TRUNCATE TABLE t"))->kind, StmtKind::kTruncateTable);
  EXPECT_EQ((*Parse("ANALYZE t"))->kind, StmtKind::kAnalyze);
}

TEST(ParserTest, SelectFull) {
  auto stmt = *Parse(
      "SELECT e.name AS n, salary * 2 FROM employees e, depts d "
      "WHERE Contains(e.resume, 'Oracle AND UNIX') AND e.did = d.id "
      "OR NOT (salary >= 10 AND salary <= 20) "
      "ORDER BY salary DESC, n LIMIT 7");
  auto* sel = static_cast<SelectStmt*>(stmt.get());
  ASSERT_EQ(sel->items.size(), 2u);
  EXPECT_EQ(sel->items[0].alias, "n");
  ASSERT_EQ(sel->from.size(), 2u);
  EXPECT_EQ(sel->from[0].alias, "e");
  EXPECT_EQ(sel->from[1].effective_name(), "d");
  ASSERT_NE(sel->where, nullptr);
  EXPECT_EQ(sel->where->kind, ExprKind::kBinary);
  EXPECT_EQ(sel->where->bop, BinaryOp::kOr);
  ASSERT_EQ(sel->order_by.size(), 2u);
  EXPECT_FALSE(sel->order_by[0].ascending);
  EXPECT_TRUE(sel->order_by[1].ascending);
  EXPECT_EQ(sel->limit, 7);
}

TEST(ParserTest, ExpressionShapes) {
  auto where = [](const std::string& w) -> std::unique_ptr<Expr> {
    auto stmt = Parse("SELECT * FROM t WHERE " + w);
    EXPECT_TRUE(stmt.ok()) << w << ": " << stmt.status().ToString();
    auto* sel = static_cast<SelectStmt*>(stmt->get());
    return std::move(sel->where);
  };
  EXPECT_EQ(where("a IS NULL")->kind, ExprKind::kIsNull);
  EXPECT_TRUE(where("a IS NOT NULL")->negated);
  EXPECT_EQ(where("a LIKE 'x%'")->kind, ExprKind::kLike);
  EXPECT_TRUE(where("a NOT LIKE 'x%'")->negated);
  // BETWEEN desugars to >= AND <=.
  auto between = where("a BETWEEN 1 AND 5");
  EXPECT_EQ(between->kind, ExprKind::kBinary);
  EXPECT_EQ(between->bop, BinaryOp::kAnd);
  // Attribute chains.
  auto attr = where("t.img.signature IS NULL");
  EXPECT_EQ(attr->children[0]->qualifier, "t");
  EXPECT_EQ(attr->children[0]->column, "img");
  EXPECT_EQ(attr->children[0]->attr_path,
            std::vector<std::string>{"signature"});
  // Precedence: 1 + 2 * 3 parses multiplication first.
  auto arith = where("x = 1 + 2 * 3");
  EXPECT_EQ(arith->children[1]->bop, BinaryOp::kAdd);
  EXPECT_EQ(arith->children[1]->children[1]->bop, BinaryOp::kMul);
}

TEST(ParserTest, InsertUpdateDelete) {
  auto ins_stmt = *Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)");
  auto* ins = static_cast<InsertStmt*>(ins_stmt.get());
  EXPECT_EQ(ins->columns.size(), 2u);
  EXPECT_EQ(ins->rows.size(), 2u);
  auto upd_stmt = *Parse("UPDATE t SET a = a + 1, b = 'y' WHERE a < 5");
  auto* upd = static_cast<UpdateStmt*>(upd_stmt.get());
  EXPECT_EQ(upd->assignments.size(), 2u);
  ASSERT_NE(upd->where, nullptr);
  auto del_stmt = *Parse("DELETE FROM t WHERE a = 1");
  auto* del = static_cast<DeleteStmt*>(del_stmt.get());
  EXPECT_NE(del->where, nullptr);
}

TEST(ParserTest, TransactionsAndExplain) {
  EXPECT_EQ((*Parse("BEGIN"))->kind, StmtKind::kBegin);
  EXPECT_EQ((*Parse("COMMIT"))->kind, StmtKind::kCommit);
  EXPECT_EQ((*Parse("ROLLBACK"))->kind, StmtKind::kRollback);
  auto ex_stmt = *Parse("EXPLAIN SELECT * FROM t");
  auto* ex = static_cast<ExplainStmt*>(ex_stmt.get());
  EXPECT_EQ(ex->inner->kind, StmtKind::kSelect);
}

TEST(ParserTest, Script) {
  auto stmts = *ParseScript(
      "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); "
      "SELECT * FROM t;");
  EXPECT_EQ(stmts.size(), 3u);
  EXPECT_TRUE(ParseScript("").ok());
  EXPECT_TRUE(ParseScript("  ;;  ")->empty());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT * FROM").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (a)").ok());
  EXPECT_FALSE(Parse("CREATE INDEX i ON t(a) INDEXTYPE TextIndexType").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE a = ").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t; garbage").ok());
  EXPECT_FALSE(Parse("BOGUS STATEMENT").ok());
  // Error messages carry position info.
  Status st = Parse("SELECT * FROM t WHERE a = ").status();
  EXPECT_NE(st.message().find("offset"), std::string::npos);
}

}  // namespace
}  // namespace exi::sql
