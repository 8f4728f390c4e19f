// End-to-end smoke tests: DDL, DML, SELECT planning and execution over the
// built-in access methods, transactions.

#include <gtest/gtest.h>

#include "engine/connection.h"

namespace exi {
namespace {

class EngineSmokeTest : public ::testing::Test {
 protected:
  EngineSmokeTest() : conn_(&db_) {}

  Database db_;
  Connection conn_;
};

TEST_F(EngineSmokeTest, CreateInsertSelect) {
  conn_.MustExecute(
      "CREATE TABLE employees (name VARCHAR(128), id INTEGER, salary "
      "DOUBLE)");
  conn_.MustExecute(
      "INSERT INTO employees VALUES ('alice', 1, 100.5), ('bob', 2, 90.0), "
      "('carol', 3, 120.25)");
  QueryResult r = conn_.MustExecute(
      "SELECT name, salary FROM employees WHERE id >= 2 ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "bob");
  EXPECT_EQ(r.rows[1][0].AsVarchar(), "carol");
  EXPECT_DOUBLE_EQ(r.rows[1][1].AsDouble(), 120.25);
}

TEST_F(EngineSmokeTest, SelectStarAndLimit) {
  conn_.MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR(10))");
  for (int i = 0; i < 10; ++i) {
    conn_.MustExecute("INSERT INTO t VALUES (" + std::to_string(i) +
                      ", 'x')");
  }
  QueryResult r =
      conn_.MustExecute("SELECT * FROM t ORDER BY a DESC LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 9);
  EXPECT_EQ(r.column_names.size(), 2u);
  EXPECT_EQ(r.column_names[0], "a");
}

TEST_F(EngineSmokeTest, BtreeIndexIsUsedForEquality) {
  conn_.MustExecute("CREATE TABLE t (id INTEGER, v VARCHAR(10))");
  for (int i = 0; i < 500; ++i) {
    conn_.MustExecute("INSERT INTO t VALUES (" + std::to_string(i) +
                      ", 'v')");
  }
  conn_.MustExecute("CREATE INDEX t_id ON t(id)");
  conn_.MustExecute("ANALYZE t");
  QueryResult ex = conn_.MustExecute("EXPLAIN SELECT * FROM t WHERE id = 7");
  EXPECT_NE(ex.message.find("BTREE(t_id)"), std::string::npos) << ex.message;
  EXPECT_NE(ex.message.find("* BTREE"), std::string::npos) << ex.message;

  QueryResult r = conn_.MustExecute("SELECT v FROM t WHERE id = 7");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineSmokeTest, RangeScanThroughBtree) {
  conn_.MustExecute("CREATE TABLE t (id INTEGER)");
  for (int i = 0; i < 100; ++i) {
    conn_.MustExecute("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  conn_.MustExecute("CREATE INDEX t_id ON t(id)");
  conn_.MustExecute("ANALYZE t");
  QueryResult r =
      conn_.MustExecute("SELECT COUNT(*) FROM t WHERE id >= 90");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 10);
}

TEST_F(EngineSmokeTest, UpdateAndDeleteMaintainIndexes) {
  conn_.MustExecute("CREATE TABLE t (id INTEGER, v INTEGER)");
  conn_.MustExecute("CREATE INDEX t_id ON t(id)");
  conn_.MustExecute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  conn_.MustExecute("UPDATE t SET id = 99 WHERE v = 20");
  conn_.MustExecute("ANALYZE t");
  QueryResult r = conn_.MustExecute("SELECT v FROM t WHERE id = 99");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 20);
  conn_.MustExecute("DELETE FROM t WHERE id = 99");
  r = conn_.MustExecute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
  r = conn_.MustExecute("SELECT v FROM t WHERE id = 99");
  EXPECT_TRUE(r.rows.empty());
  // An UPDATE moves a row between duplicate keys of a VARCHAR index, and
  // both keys answer the new counts.
  conn_.MustExecute("CREATE TABLE c (color VARCHAR(10), n INTEGER)");
  std::string values;
  for (int i = 0; i < 300; ++i) {
    values += std::string(i ? ", " : "") + "('" +
              (i % 3 == 0 ? "red" : "blue") + "', " + std::to_string(i) + ")";
  }
  conn_.MustExecute("INSERT INTO c VALUES " + values);
  conn_.MustExecute("CREATE INDEX c_color ON c(color)");
  conn_.MustExecute("ANALYZE c");
  conn_.MustExecute("UPDATE c SET color = 'green' WHERE n = 0");
  QueryResult ex =
      conn_.MustExecute("EXPLAIN SELECT * FROM c WHERE color = 'red'");
  EXPECT_NE(ex.message.find("* BTREE(c_color)"), std::string::npos)
      << ex.message;
  r = conn_.MustExecute("SELECT COUNT(*) FROM c WHERE color = 'red'");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 99);
  r = conn_.MustExecute("SELECT COUNT(*) FROM c WHERE color = 'green'");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
}

TEST_F(EngineSmokeTest, TransactionsRollBackDataAndIndexes) {
  conn_.MustExecute("CREATE TABLE t (id INTEGER)");
  conn_.MustExecute("CREATE INDEX t_id ON t(id)");
  conn_.MustExecute("INSERT INTO t VALUES (1)");
  conn_.MustExecute("BEGIN");
  conn_.MustExecute("INSERT INTO t VALUES (2)");
  conn_.MustExecute("DELETE FROM t WHERE id = 1");
  conn_.MustExecute("ROLLBACK");
  QueryResult r = conn_.MustExecute("SELECT COUNT(*) FROM t WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  r = conn_.MustExecute("SELECT COUNT(*) FROM t WHERE id = 2");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
}

TEST_F(EngineSmokeTest, JoinTwoTables) {
  conn_.MustExecute("CREATE TABLE a (id INTEGER, name VARCHAR(10))");
  conn_.MustExecute("CREATE TABLE b (aid INTEGER, score INTEGER)");
  conn_.MustExecute("INSERT INTO a VALUES (1, 'x'), (2, 'y')");
  conn_.MustExecute("INSERT INTO b VALUES (1, 10), (1, 20), (2, 30)");
  QueryResult r = conn_.MustExecute(
      "SELECT a.name, b.score FROM a, b WHERE a.id = b.aid ORDER BY "
      "b.score");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "x");
  EXPECT_EQ(r.rows[2][0].AsVarchar(), "y");
}

TEST_F(EngineSmokeTest, IndexJoinIsChosenWhenInnerIndexed) {
  conn_.MustExecute("CREATE TABLE a (id INTEGER)");
  conn_.MustExecute("CREATE TABLE b (aid INTEGER)");
  conn_.MustExecute("CREATE INDEX b_aid ON b(aid)");
  conn_.MustExecute("INSERT INTO a VALUES (1), (2)");
  conn_.MustExecute("INSERT INTO b VALUES (1), (2), (2)");
  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT * FROM a, b WHERE a.id = b.aid");
  EXPECT_NE(ex.message.find("IndexJoin"), std::string::npos) << ex.message;
  QueryResult r =
      conn_.MustExecute("SELECT * FROM a, b WHERE a.id = b.aid");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(EngineSmokeTest, AggregatesAndArithmetic) {
  conn_.MustExecute("CREATE TABLE t (x INTEGER)");
  conn_.MustExecute("INSERT INTO t VALUES (1), (2), (3), (4)");
  QueryResult r = conn_.MustExecute(
      "SELECT COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x) FROM t WHERE x > 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 9.0);
  EXPECT_EQ(r.rows[0][2].AsInteger(), 2);
  EXPECT_EQ(r.rows[0][3].AsInteger(), 4);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 3.0);
}

TEST_F(EngineSmokeTest, LikeAndNullHandling) {
  conn_.MustExecute("CREATE TABLE t (s VARCHAR(20))");
  conn_.MustExecute("INSERT INTO t VALUES ('oracle'), ('miracle'), (NULL)");
  QueryResult r =
      conn_.MustExecute("SELECT s FROM t WHERE s LIKE '%racle'");
  EXPECT_EQ(r.rows.size(), 2u);
  r = conn_.MustExecute("SELECT s FROM t WHERE s IS NULL");
  EXPECT_EQ(r.rows.size(), 1u);
  r = conn_.MustExecute("SELECT s FROM t WHERE s LIKE 'ora%'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "oracle");
}

TEST_F(EngineSmokeTest, TruncateAndDrop) {
  conn_.MustExecute("CREATE TABLE t (id INTEGER)");
  conn_.MustExecute("CREATE INDEX t_id ON t(id)");
  conn_.MustExecute("INSERT INTO t VALUES (1), (2)");
  conn_.MustExecute("TRUNCATE TABLE t");
  QueryResult r = conn_.MustExecute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
  conn_.MustExecute("DROP TABLE t");
  Result<QueryResult> bad = conn_.Execute("SELECT * FROM t");
  EXPECT_FALSE(bad.ok());
}

TEST_F(EngineSmokeTest, CompositeIndexLeadingColumnPrefix) {
  // Regression: a multi-column B-tree chosen for a leading-column equality
  // must probe by key prefix, not by a truncated exact key.
  conn_.MustExecute("CREATE TABLE t (a INTEGER, b INTEGER)");
  conn_.MustExecute("CREATE INDEX t_ab ON t(a, b)");
  for (int i = 0; i < 1000; ++i) {
    conn_.MustExecute("INSERT INTO t VALUES (" + std::to_string(i % 100) +
                      ", " + std::to_string(i) + ")");
  }
  conn_.MustExecute("ANALYZE t");
  QueryResult ex = conn_.MustExecute("EXPLAIN SELECT * FROM t WHERE a = 5");
  EXPECT_NE(ex.message.find("* BTREE(t_ab)"), std::string::npos)
      << ex.message;
  QueryResult r = conn_.MustExecute("SELECT COUNT(*) FROM t WHERE a = 5");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 10);
  // Range predicates on the leading column of a composite index cannot be
  // served by a prefix probe: planner must fall back.
  ex = conn_.MustExecute("EXPLAIN SELECT * FROM t WHERE a < 3");
  EXPECT_EQ(ex.message.find("* BTREE(t_ab)"), std::string::npos)
      << ex.message;
  r = conn_.MustExecute("SELECT COUNT(*) FROM t WHERE a < 3");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 30);
}

TEST_F(EngineSmokeTest, SelectDistinct) {
  conn_.MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR(5))");
  conn_.MustExecute(
      "INSERT INTO t VALUES (1, 'x'), (1, 'x'), (1, 'y'), (2, 'x'), "
      "(NULL, 'x'), (NULL, 'x')");
  QueryResult r = conn_.MustExecute("SELECT DISTINCT a, b FROM t");
  EXPECT_EQ(r.rows.size(), 4u);  // (1,x) (1,y) (2,x) (NULL,x)
  r = conn_.MustExecute("SELECT DISTINCT a FROM t WHERE b = 'x'");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(EngineSmokeTest, DictionaryViews) {
  conn_.MustExecute("CREATE TABLE emp (id INTEGER, name VARCHAR(20))");
  conn_.MustExecute("CREATE INDEX emp_id ON emp(id)");
  conn_.MustExecute("INSERT INTO emp VALUES (1, 'a'), (2, 'b')");
  QueryResult r = conn_.MustExecute(
      "SELECT table_name, num_rows FROM user_tables WHERE table_name = "
      "'emp'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
  r = conn_.MustExecute(
      "SELECT index_type FROM user_indexes WHERE index_name = 'emp_id'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "BTREE");
  // Views refresh per query: new rows show up.
  conn_.MustExecute("INSERT INTO emp VALUES (3, 'c')");
  r = conn_.MustExecute(
      "SELECT num_rows FROM user_tables WHERE table_name = 'emp'");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 3);
}

TEST_F(EngineSmokeTest, ErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(conn_.Execute("SELECT FROM").ok());
  EXPECT_FALSE(conn_.Execute("SELECT * FROM nope").ok());
  conn_.MustExecute("CREATE TABLE t (id INTEGER NOT NULL)");
  EXPECT_FALSE(conn_.Execute("INSERT INTO t VALUES (NULL)").ok());
  EXPECT_FALSE(conn_.Execute("INSERT INTO t VALUES ('str')").ok());
  EXPECT_FALSE(conn_.Execute("SELECT nosuch FROM t").ok());
}

}  // namespace
}  // namespace exi
