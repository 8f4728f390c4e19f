// Tests for src/exec + src/optimizer: binder resolution, evaluator
// semantics (NULL logic, LIKE, arithmetic), plan-node behaviors, conjunct
// splitting, statistics, and access-path selection details.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.h"
#include "engine/connection.h"
#include "exec/evaluator.h"
#include "exec/expression.h"
#include "optimizer/planner.h"
#include "optimizer/stats.h"
#include "sql/parser.h"

namespace exi {
namespace {

// Parses a scalar expression by wrapping it in a SELECT.
std::unique_ptr<sql::Expr> ParseExpr(const std::string& text) {
  auto stmt = sql::Parse("SELECT * FROM t WHERE " + text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* sel = static_cast<sql::SelectStmt*>(stmt->get());
  return std::move(sel->where);
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : conn_(&db_) {
    conn_.MustExecute(
        "CREATE TABLE t (a INTEGER, b VARCHAR(20), c DOUBLE)");
  }

  Result<std::unique_ptr<sql::Expr>> Bind(const std::string& text) {
    auto expr = ParseExpr(text);
    Binder binder(&db_.catalog());
    HeapTable* table = *db_.catalog().GetTable("t");
    std::vector<BoundTable> tables = {
        BoundTable{"t", "t", &table->schema(), 0}};
    EXI_RETURN_IF_ERROR(binder.Bind(expr.get(), tables));
    return expr;
  }

  Result<Value> Eval(const std::string& text, const Row& row) {
    EXI_ASSIGN_OR_RETURN(std::unique_ptr<sql::Expr> expr, Bind(text));
    return Evaluator::Eval(*expr, row);
  }

  // Registers TwiceFn and the operator Twice(INTEGER) bound to it.
  void CreateTwice() {
    ASSERT_TRUE(db_.catalog()
                    .functions()
                    .Register("TwiceFn",
                              [](const ValueList& args) -> Result<Value> {
                                if (args[0].is_null()) return Value::Null();
                                return Value::Integer(args[0].AsInteger() *
                                                      2);
                              })
                    .ok());
    conn_.MustExecute(
        "CREATE OPERATOR Twice BINDING (INTEGER) RETURN INTEGER USING "
        "TwiceFn");
  }

  // How far functional_evaluations moves while `sql` runs.
  uint64_t FunctionalEvaluations(const std::string& sql) {
    StorageMetrics before = GlobalMetrics().Snapshot();
    conn_.MustExecute(sql);
    return GlobalMetrics().Snapshot().Delta(before).functional_evaluations;
  }

  Database db_;
  Connection conn_;
};

TEST_F(EvaluatorTest, ArithmeticAndComparison) {
  Row row = {Value::Integer(6), Value::Varchar("x"), Value::Double(1.5)};
  EXPECT_EQ(Eval("a + 2 = 8", row)->AsBoolean(), true);
  EXPECT_EQ(Eval("a * c", row)->AsDouble(), 9.0);
  EXPECT_EQ(Eval("a - 10", row)->AsInteger(), -4);
  EXPECT_EQ(Eval("a / 4", row)->AsDouble(), 1.5);  // division is double
  EXPECT_FALSE(Eval("a / 0", row).ok());
  EXPECT_EQ(Eval("-a", row)->AsInteger(), -6);
  EXPECT_EQ(Eval("a <> 6", row)->AsBoolean(), false);
}

TEST_F(EvaluatorTest, NullPropagationAndThreeValuedLogic) {
  Row row = {Value::Null(), Value::Varchar("x"), Value::Double(1.0)};
  EXPECT_TRUE(Eval("a = 1", row)->is_null());
  EXPECT_TRUE(Eval("a + 1", row)->is_null());
  // FALSE AND NULL = FALSE; TRUE OR NULL = TRUE (short circuit).
  EXPECT_EQ(Eval("c = 2 AND a = 1", row)->AsBoolean(), false);
  EXPECT_EQ(Eval("c = 1 OR a = 1", row)->AsBoolean(), true);
  // TRUE AND NULL = NULL; FALSE OR NULL = NULL.
  EXPECT_TRUE(Eval("c = 1 AND a = 1", row)->is_null());
  EXPECT_TRUE(Eval("c = 2 OR a = 1", row)->is_null());
  EXPECT_EQ(Eval("a IS NULL", row)->AsBoolean(), true);
  EXPECT_EQ(Eval("b IS NOT NULL", row)->AsBoolean(), true);
  // NOT NULL = NULL.
  EXPECT_TRUE(Eval("NOT (a = 1)", row)->is_null());
}

TEST_F(EvaluatorTest, LikeMatcher) {
  EXPECT_TRUE(Evaluator::LikeMatch("oracle", "oracle"));
  EXPECT_TRUE(Evaluator::LikeMatch("oracle", "ora%"));
  EXPECT_TRUE(Evaluator::LikeMatch("oracle", "%acle"));
  EXPECT_TRUE(Evaluator::LikeMatch("oracle", "o_a_l_"));
  EXPECT_TRUE(Evaluator::LikeMatch("oracle", "%"));
  EXPECT_TRUE(Evaluator::LikeMatch("", "%"));
  EXPECT_FALSE(Evaluator::LikeMatch("", "_"));
  EXPECT_FALSE(Evaluator::LikeMatch("oracle", "Oracle"));  // case-sensitive
  EXPECT_TRUE(Evaluator::LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(Evaluator::LikeMatch("ab", "a_b"));
  EXPECT_TRUE(Evaluator::LikeMatch("aab", "%ab"));  // backtracking
}

TEST_F(EvaluatorTest, BuiltinFunctions) {
  Row row = {Value::Integer(-3), Value::Varchar("MiXeD"), Value::Double(1)};
  EXPECT_EQ(Eval("LOWER(b) = 'mixed'", row)->AsBoolean(), true);
  EXPECT_EQ(Eval("UPPER(b) = 'MIXED'", row)->AsBoolean(), true);
  EXPECT_EQ(Eval("LENGTH(b) = 5", row)->AsBoolean(), true);
  EXPECT_EQ(Eval("ABS(a) = 3", row)->AsBoolean(), true);
}

TEST_F(EvaluatorTest, BinderErrors) {
  Row row;
  EXPECT_EQ(Eval("nosuch = 1", row).status().code(), StatusCode::kBindError);
  EXPECT_EQ(Eval("NoSuchFn(a) = 1", row).status().code(),
            StatusCode::kBindError);
  // Attribute access on a non-object column.
  EXPECT_EQ(Eval("b.attr = 1", row).status().code(),
            StatusCode::kBindError);
}

TEST_F(EvaluatorTest, FunctionalEvaluationsCountUserCallsOnly) {
  CreateTwice();
  conn_.MustExecute(
      "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'B', -2.5), (3, 'c', 3.0)");
  // Once per row for a user operator and for a registered function.
  EXPECT_EQ(FunctionalEvaluations("SELECT Twice(a) FROM t"), 3u);
  EXPECT_EQ(FunctionalEvaluations("SELECT TwiceFn(a) FROM t"), 3u);
  EXPECT_EQ(FunctionalEvaluations("SELECT a FROM t WHERE Twice(a) = 4"),
            3u);
  // Never for built-ins or LIKE.
  EXPECT_EQ(FunctionalEvaluations(
                "SELECT LOWER(b), ABS(c) FROM t WHERE UPPER(b) LIKE '%'"),
            0u);
  // Nor for Score(), which reads the row's ancillary value.
  Result<std::unique_ptr<sql::Expr>> score = Bind("Score()");
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  Value ancillary = Value::Double(0.5);
  StorageMetrics before = GlobalMetrics().Snapshot();
  Result<Value> v = Evaluator::Eval(**score, {}, &ancillary);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsDouble(), 0.5);
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).functional_evaluations,
            0u);
}

TEST_F(EvaluatorTest, CallsBindToTheirFunctionOnce) {
  CreateTwice();
  Result<std::unique_ptr<sql::Expr>> bound = Bind("Twice(a)");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_TRUE(db_.catalog().functions().Unregister("TwiceFn").ok());
  // An expression bound before the function went keeps its callable.
  Result<Value> v = Evaluator::Eval(**bound, {Value::Integer(21)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInteger(), 42);
  // A statement bound later fails at bind time: the operator's function
  // is gone.
  Result<QueryResult> r = conn_.Execute("SELECT Twice(a) FROM t");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(conn_.Execute("SELECT NoSuchFn(a) FROM t").status().code(),
            StatusCode::kBindError);
}

TEST(BinderTest, AmbiguityAndQualification) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE x (id INTEGER, v INTEGER)");
  conn.MustExecute("CREATE TABLE y (id INTEGER, w INTEGER)");
  // Unqualified ambiguous column.
  EXPECT_FALSE(conn.Execute("SELECT id FROM x, y").ok());
  // Qualified works.
  EXPECT_TRUE(conn.Execute("SELECT x.id, y.id FROM x, y").ok());
  // Unique unqualified works.
  EXPECT_TRUE(conn.Execute("SELECT v, w FROM x, y").ok());
}

TEST(PlannerTest, ConjunctSplitting) {
  auto expr = ParseExpr("a = 1 AND (b = 2 OR c = 3) AND d = 4");
  std::vector<sql::Expr*> conjuncts;
  Planner::SplitConjuncts(expr.get(), &conjuncts);
  ASSERT_EQ(conjuncts.size(), 3u);
  EXPECT_EQ(conjuncts[1]->bop, sql::BinaryOp::kOr);
}

TEST(PlannerTest, MergedRangeUsesBothBounds) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (v INTEGER)");
  for (int i = 0; i < 1000; ++i) {
    conn.MustExecute("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  conn.MustExecute("CREATE INDEX tv ON t(v)");
  conn.MustExecute("ANALYZE t");
  StorageMetrics before = GlobalMetrics().Snapshot();
  QueryResult r = conn.MustExecute(
      "SELECT COUNT(*) FROM t WHERE v >= 100 AND v < 110");
  StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 10);
  // A bounded range touches few rows; an unbounded one would read ~900.
  EXPECT_LT(delta.table_rows_read, 50u);
}

TEST(PlannerTest, ContradictoryEqAndRange) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (v INTEGER)");
  for (int i = 0; i < 100; ++i) {
    conn.MustExecute("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  conn.MustExecute("CREATE INDEX tv ON t(v)");
  conn.MustExecute("ANALYZE t");
  QueryResult r = conn.MustExecute(
      "SELECT COUNT(*) FROM t WHERE v = 50 AND v < 10");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
  r = conn.MustExecute("SELECT COUNT(*) FROM t WHERE v = 50 AND v <= 50");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
}

TEST(PlannerTest, MixedTypeBoundsMatchFunctionalEvaluation) {
  // A B-tree orders keys across type families, but Value::Compare rejects a
  // comparison between families: a mistyped bound must fail the same way
  // with the index as without it, not return rows the filter would refuse.
  auto make = [](Database* db, bool indexed) {
    Connection conn(db);
    conn.MustExecute("CREATE TABLE t (a INTEGER, s VARCHAR(5), d DOUBLE)");
    conn.MustExecute(
        "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'c', 3.5), "
        "(4, 'd', 4.5)");
    if (indexed) {
      conn.MustExecute("CREATE INDEX t_a ON t(a)");
      conn.MustExecute("CREATE INDEX t_s ON t(s)");
      conn.MustExecute("CREATE INDEX t_d ON t(d)");
    }
  };
  Database plain_db;
  Database indexed_db;
  make(&plain_db, false);
  make(&indexed_db, true);
  Connection plain(&plain_db);
  Connection indexed(&indexed_db);
  // The well-typed controls show the indexes are live.
  EXPECT_NE(indexed.MustExecute("EXPLAIN SELECT a FROM t WHERE s > 'b'")
                .message.find("* BTREE(t_s)"),
            std::string::npos);
  const char* kWheres[] = {
      "s > 1",  "s >= 0 AND s <= 99", "a > 'x'", "d < '3'",
      "s = 1",  "s > 'b'",            "a < 3",   "d >= 2",
  };
  for (const char* where : kWheres) {
    const std::string sql = std::string("SELECT a FROM t WHERE ") + where;
    Result<QueryResult> want = plain.Execute(sql);
    Result<QueryResult> got = indexed.Execute(sql);
    ASSERT_EQ(got.status().code(), want.status().code())
        << where << ": " << got.status().ToString() << " vs "
        << want.status().ToString();
    if (!want.ok()) continue;
    auto ints = [](const QueryResult& r) {
      std::vector<int64_t> out;
      for (const Row& row : r.rows) out.push_back(row[0].AsInteger());
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(ints(*got), ints(*want)) << where;
  }
  EXPECT_EQ(plain.Execute("SELECT a FROM t WHERE s > 1").status().code(),
            StatusCode::kTypeMismatch);
}

TEST(StatsTest, AnalyzeAndSelectivity) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR(10))");
  for (int i = 0; i < 100; ++i) {
    conn.MustExecute("INSERT INTO t VALUES (" + std::to_string(i % 10) +
                     ", " + (i % 2 ? "'x'" : "NULL") + ")");
  }
  ASSERT_TRUE(AnalyzeTable(&db.catalog(), "t").ok());
  TableInfo* info = *db.catalog().GetTableInfo("t");
  EXPECT_TRUE(info->stats.analyzed);
  EXPECT_EQ(info->stats.row_count, 100u);
  EXPECT_EQ(info->stats.columns[0].distinct_values, 10u);
  EXPECT_EQ(info->stats.columns[1].null_count, 50u);
  EXPECT_EQ(info->stats.columns[0].min->AsInteger(), 0);
  EXPECT_EQ(info->stats.columns[0].max->AsInteger(), 9);

  EXPECT_DOUBLE_EQ(EqualitySelectivity(info->stats, 0), 0.1);
  double lt5 = RangeSelectivity(info->stats, 0, '<', Value::Integer(5));
  EXPECT_NEAR(lt5, 0.55, 0.1);
  double gt5 = RangeSelectivity(info->stats, 0, '>', Value::Integer(5));
  EXPECT_NEAR(lt5 + gt5, 1.0, 1e-9);
}

TEST(ExecNodeTest, OrderByWithLimitAndDuplicates) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (a INTEGER, b INTEGER)");
  conn.MustExecute(
      "INSERT INTO t VALUES (1, 3), (2, 1), (1, 1), (2, 3), (1, 2)");
  QueryResult r = conn.MustExecute(
      "SELECT a, b FROM t ORDER BY a ASC, b DESC LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 3);
  EXPECT_EQ(r.rows[1][1].AsInteger(), 2);
  EXPECT_EQ(r.rows[2][1].AsInteger(), 1);
}

TEST(PlannerTest, BooleanColumnIndexProbeCoercion) {
  // `flag = 1` probing an index on a BOOLEAN column must coerce the bound,
  // matching the evaluator's comparison semantics.
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (flag BOOLEAN, n INTEGER)");
  for (int i = 0; i < 200; ++i) {
    conn.MustExecute(std::string("INSERT INTO t VALUES (") +
                     (i % 4 == 0 ? "TRUE" : "FALSE") + ", " +
                     std::to_string(i) + ")");
  }
  conn.MustExecute("CREATE INDEX t_flag ON t(flag)");
  conn.MustExecute("ANALYZE t");
  QueryResult ex =
      conn.MustExecute("EXPLAIN SELECT * FROM t WHERE flag = 1");
  EXPECT_NE(ex.message.find("* BTREE(t_flag)"), std::string::npos)
      << ex.message;
  EXPECT_EQ(conn.MustExecute("SELECT COUNT(*) FROM t WHERE flag = 1")
                .rows[0][0]
                .AsInteger(),
            50);
  EXPECT_EQ(conn.MustExecute("SELECT COUNT(*) FROM t WHERE flag = TRUE")
                .rows[0][0]
                .AsInteger(),
            50);
  // A number other than 0 or 1 equals neither TRUE (1) nor FALSE (0), and
  // 0.5 lies between them: no index key stands for such a bound.
  EXPECT_EQ(conn.MustExecute("SELECT COUNT(*) FROM t WHERE flag = 2")
                .rows[0][0]
                .AsInteger(),
            0);
  EXPECT_EQ(conn.MustExecute("SELECT COUNT(*) FROM t WHERE flag > 0.5")
                .rows[0][0]
                .AsInteger(),
            50);

  // A join probe coerces each outer key the same way.
  conn.MustExecute("CREATE TABLE o (k INTEGER)");
  conn.MustExecute("CREATE TABLE i (flag BOOLEAN, n INTEGER)");
  conn.MustExecute("INSERT INTO o VALUES (1), (0)");
  conn.MustExecute("INSERT INTO i VALUES (TRUE, 1), (FALSE, 2), (TRUE, 3)");
  const std::string join = "SELECT o.k, i.n FROM o, i WHERE i.flag = o.k";
  auto pairs = [&conn](const std::string& sql) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row : conn.MustExecute(sql).rows) {
      out.emplace_back(row[0].AsInteger(), row[1].AsInteger());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {0, 2}, {1, 1}, {1, 3}};
  EXPECT_EQ(pairs(join), want);
  conn.MustExecute("CREATE INDEX i_flag ON i(flag)");
  ex = conn.MustExecute("EXPLAIN " + join);
  EXPECT_NE(ex.message.find("IndexJoin(inner=i via i_flag, key=o.k)"),
            std::string::npos)
      << ex.message;
  EXPECT_EQ(pairs(join), want);
  // An outer key of 2 equals no flag.
  conn.MustExecute("INSERT INTO o VALUES (2)");
  EXPECT_EQ(pairs(join), want);
}

TEST(ExecNodeTest, IndexJoinSkipsCompositeInnerIndex) {
  // Regression: an equi-join must not probe a composite inner index with a
  // single-column key (it would silently drop every match).
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE outer_t (k INTEGER)");
  conn.MustExecute("CREATE TABLE inner_t (k INTEGER, extra INTEGER)");
  conn.MustExecute("CREATE INDEX inner_composite ON inner_t(k, extra)");
  conn.MustExecute("INSERT INTO outer_t VALUES (1), (2)");
  conn.MustExecute("INSERT INTO inner_t VALUES (1, 10), (2, 20), (2, 30)");
  QueryResult r = conn.MustExecute(
      "SELECT outer_t.k FROM outer_t, inner_t WHERE outer_t.k = inner_t.k");
  EXPECT_EQ(r.rows.size(), 3u);
  // With a usable single-column index, the index join is chosen and still
  // returns the same rows.
  conn.MustExecute("CREATE INDEX inner_k ON inner_t(k)");
  QueryResult ex = conn.MustExecute(
      "EXPLAIN SELECT outer_t.k FROM outer_t, inner_t WHERE outer_t.k = "
      "inner_t.k");
  EXPECT_NE(ex.message.find("IndexJoin"), std::string::npos) << ex.message;
  r = conn.MustExecute(
      "SELECT outer_t.k FROM outer_t, inner_t WHERE outer_t.k = inner_t.k");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST(ExecNodeTest, ThreeWayJoin) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE a (x INTEGER)");
  conn.MustExecute("CREATE TABLE b (y INTEGER)");
  conn.MustExecute("CREATE TABLE c (z INTEGER)");
  conn.MustExecute("INSERT INTO a VALUES (1), (2)");
  conn.MustExecute("INSERT INTO b VALUES (1), (2)");
  conn.MustExecute("INSERT INTO c VALUES (2), (3)");
  QueryResult r = conn.MustExecute(
      "SELECT a.x FROM a, b, c WHERE a.x = b.y AND b.y = c.z");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST(ExecNodeTest, GroupByBasics) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (dept VARCHAR(10), salary INTEGER)");
  conn.MustExecute(
      "INSERT INTO t VALUES ('eng', 100), ('eng', 200), ('sales', 50), "
      "('sales', 70), ('hr', 30)");
  QueryResult r = conn.MustExecute(
      "SELECT dept, COUNT(*), SUM(salary), MAX(salary) FROM t "
      "GROUP BY dept");
  ASSERT_EQ(r.rows.size(), 3u);  // groups emitted in key order
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "eng");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 300.0);
  EXPECT_EQ(r.rows[0][3].AsInteger(), 200);
  EXPECT_EQ(r.rows[1][0].AsVarchar(), "hr");
  EXPECT_EQ(r.rows[2][0].AsVarchar(), "sales");
}

TEST(ExecNodeTest, GroupByWithWhereAndValidation) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (k INTEGER, v INTEGER)");
  for (int i = 0; i < 20; ++i) {
    conn.MustExecute("INSERT INTO t VALUES (" + std::to_string(i % 4) +
                     ", " + std::to_string(i) + ")");
  }
  QueryResult r = conn.MustExecute(
      "SELECT k, COUNT(*) FROM t WHERE v >= 10 GROUP BY k");
  ASSERT_EQ(r.rows.size(), 4u);
  // v in [10,19], k = v % 4: groups 0,1 have 2 members; 2,3 have 3.
  int64_t total = 0;
  for (const Row& row : r.rows) total += row[1].AsInteger();
  EXPECT_EQ(total, 10);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
  EXPECT_EQ(r.rows[3][1].AsInteger(), 3);
  // NULL keys form their own group.
  conn.MustExecute("INSERT INTO t VALUES (NULL, 99), (NULL, 98)");
  r = conn.MustExecute("SELECT k, COUNT(*) FROM t GROUP BY k");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_TRUE(r.rows[0][0].is_null());  // NULL sorts first
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
  // Non-grouped scalar in the select list is rejected.
  EXPECT_FALSE(conn.Execute("SELECT v, COUNT(*) FROM t GROUP BY k").ok());
  EXPECT_FALSE(conn.Execute("SELECT * FROM t GROUP BY k").ok());
}

TEST(ExecNodeTest, ExplainShowsCandidatesAndTree) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (a INTEGER)");
  conn.MustExecute("CREATE INDEX ta ON t(a)");
  conn.MustExecute("INSERT INTO t VALUES (1)");
  conn.MustExecute("ANALYZE t");
  QueryResult ex = conn.MustExecute(
      "EXPLAIN SELECT a FROM t WHERE a = 1 ORDER BY a LIMIT 5");
  EXPECT_NE(ex.message.find("SeqScan(t)"), std::string::npos);
  EXPECT_NE(ex.message.find("BTREE(ta)"), std::string::npos);
  EXPECT_NE(ex.message.find("Sort("), std::string::npos);
  EXPECT_NE(ex.message.find("Limit(5)"), std::string::npos);
  EXPECT_NE(ex.message.find("Project(a)"), std::string::npos);
}

}  // namespace
}  // namespace exi
