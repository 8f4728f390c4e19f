// Observability-layer tests: EXPLAIN ANALYZE per-node actuals must match
// what the query really returns, and the V$ODCI_CALLS view must account
// for every dispatch exactly in serial runs and sum-preservingly when scans
// run on the worker pool (parallelism 4).  The USER_* and V$ system views
// must exist only for the statement that names them.
//
// The Tracer and GlobalMetrics are process-wide, so each test that asserts
// exact counts resets the tracer first; tests in this binary run serially.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "common/metrics.h"
#include "common/tracer.h"
#include "engine/connection.h"
#include "engine/workloads.h"

namespace exi {
namespace {

// Pulls the "actual rows=N" annotation off the first plan line containing
// `node_substring`; -1 if no such line/annotation exists.
int64_t ActualRows(const std::string& message,
                   const std::string& node_substring) {
  size_t line_start = 0;
  while (line_start < message.size()) {
    size_t line_end = message.find('\n', line_start);
    if (line_end == std::string::npos) line_end = message.size();
    std::string line = message.substr(line_start, line_end - line_start);
    if (line.find(node_substring) != std::string::npos) {
      size_t at = line.find("actual rows=");
      if (at == std::string::npos) return -1;
      return std::stoll(line.substr(at + 12));
    }
    line_start = line_end + 1;
  }
  return -1;
}

// Calls recorded for `routine` in the global tracer (all indextypes).
uint64_t TracedCalls(const std::string& routine) {
  uint64_t calls = 0;
  for (const auto& [key, stats] : Tracer::Global().Snapshot()) {
    if (key.second == routine) calls += stats.calls;
  }
  return calls;
}

// One row of V$ODCI_CALLS fetched through SQL, keyed by routine name.
int64_t ViewCalls(Connection* conn, const std::string& routine) {
  QueryResult r = conn->MustExecute(
      "SELECT calls FROM v$odci_calls WHERE routine = '" + routine + "'");
  if (r.rows.empty()) return 0;
  int64_t calls = 0;
  for (const Row& row : r.rows) calls += row[0].AsInteger();
  return calls;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : conn_(&db_) {
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
    Tracer::Global().Reset();
  }

  Database db_;
  Connection conn_;
};

TEST(TracerTest, RecordsAndMerges) {
  Tracer tracer;
  tracer.Record("TestType", "test", "ODCIIndexFetch", 5, true);
  tracer.Record("TestType", "test", "ODCIIndexFetch", 11, false);
  TracerSnapshot snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const RoutineStats& stats = snap.begin()->second;
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.total_us, 16);
  EXPECT_EQ(stats.min_us, 5);
  EXPECT_EQ(stats.max_us, 11);
  EXPECT_EQ(stats.cartridge, "test");
}

TEST(TracerTest, CrossThreadShardsSumExactly) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Record("TestType", "test", "ODCIIndexInsert", 1, true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TracerSnapshot snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.begin()->second.calls, uint64_t(kThreads * kPerThread));
}

TEST(TracerTest, DeltaDropsUnchangedEntries) {
  Tracer tracer;
  tracer.Record("A", "a", "ODCIIndexStart", 2, true);
  TracerSnapshot before = tracer.Snapshot();
  tracer.Record("B", "b", "ODCIIndexStart", 3, true);
  tracer.Record("B", "b", "ODCIIndexStart", 4, true);
  TracerSnapshot delta = TracerDelta(tracer.Snapshot(), before);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.begin()->first.first, "B");
  EXPECT_EQ(delta.begin()->second.calls, 2u);
  EXPECT_EQ(delta.begin()->second.total_us, 7);
}

TEST(TracerTest, HistogramPercentiles) {
  LatencyHistogram hist;
  for (int i = 0; i < 99; ++i) hist.Record(2);
  hist.Record(1000);
  EXPECT_EQ(hist.ApproxPercentileUs(0.5), 2);
  EXPECT_GE(hist.ApproxPercentileUs(1.0), 1000 / 2);
  LatencyHistogram empty;
  EXPECT_EQ(empty.ApproxPercentileUs(0.5), 0);
}

TEST_F(ObservabilityTest, ExplainAnalyzeSeqScanRowCounts) {
  conn_.MustExecute("CREATE TABLE nums (n INTEGER)");
  conn_.MustExecute("INSERT INTO nums VALUES (1), (2), (3), (4), (5)");
  QueryResult direct = conn_.MustExecute("SELECT n FROM nums WHERE n <= 3");
  ASSERT_EQ(direct.rows.size(), 3u);

  QueryResult r =
      conn_.MustExecute("EXPLAIN ANALYZE SELECT n FROM nums WHERE n <= 3");
  EXPECT_TRUE(r.rows.empty());  // analyze discards the result set
  // The seq scan feeds all 5 rows; the filter keeps 3.
  EXPECT_EQ(ActualRows(r.message, "SeqScan"), 5);
  EXPECT_EQ(ActualRows(r.message, "Filter"), 3);
  EXPECT_NE(r.message.find("loops=1"), std::string::npos);
  EXPECT_NE(r.message.find("total time:"), std::string::npos);
}

TEST_F(ObservabilityTest, ExplainAnalyzeDomainIndexScan) {
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "docs", 300, 12, 200, 0.8, 7).ok());
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  QueryResult direct = conn_.MustExecute(
      "SELECT id FROM docs WHERE Contains(body, 'w1')");
  ASSERT_GT(direct.rows.size(), 0u);

  QueryResult r = conn_.MustExecute(
      "EXPLAIN ANALYZE SELECT id FROM docs WHERE Contains(body, 'w1')");
  EXPECT_EQ(ActualRows(r.message, "DomainIndexScan"),
            int64_t(direct.rows.size()));
  // The statement's ODCI window covers the scan dispatches (and the
  // ODCIStats planning calls).
  EXPECT_NE(r.message.find("ODCI calls (this statement):"),
            std::string::npos);
  EXPECT_NE(r.message.find("ODCIIndexStart: calls=1"), std::string::npos);
  EXPECT_NE(r.message.find("ODCIIndexClose: calls=1"), std::string::npos);
  EXPECT_NE(r.message.find("ODCIIndexFetch"), std::string::npos);
}

TEST_F(ObservabilityTest, ExplainAnalyzeDomainIndexJoin) {
  ASSERT_TRUE(workload::BuildSpatialTable(&conn_, "roads", 30, 500.0, 7).ok());
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "parks", 80, 300.0, 8).ok());
  conn_.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS SpatialIndexType");
  conn_.MustExecute("ANALYZE roads");
  conn_.MustExecute("ANALYZE parks");

  const std::string q =
      "SELECT r.gid, p.gid FROM roads r, parks p "
      "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  QueryResult direct = conn_.MustExecute(q);

  Tracer::Global().Reset();
  QueryResult r = conn_.MustExecute("EXPLAIN ANALYZE " + q);
  EXPECT_EQ(ActualRows(r.message, "DomainIndexJoin"),
            int64_t(direct.rows.size()));
  // One probe (Start+Close pair) per outer row.
  EXPECT_EQ(TracedCalls("ODCIIndexStart"), 30u);
  EXPECT_EQ(TracedCalls("ODCIIndexClose"), 30u);
}

TEST_F(ObservabilityTest, VOdciCallsExactAtParallelism1) {
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "docs", 120, 10, 150, 0.8, 3).ok());
  Tracer::Global().Reset();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  // Serial build: one ODCIIndexCreate, nothing else.
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexCreate"), 1);
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexCreateStorage"), 0);
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexInsert"), 0);

  const std::string q = "SELECT id FROM docs WHERE Contains(body, 'w2')";
  size_t rows = conn_.MustExecute(q).rows.size();
  ASSERT_GT(rows, 7u);

  // Exactly one scan: Start and Close once; Fetch once per batch, the last
  // one marked end-of-scan, so no empty batch is asked for.  The default
  // batch, a batch that leaves a partial last one, and one that divides
  // the rows exactly.
  for (size_t batch : {db_.fetch_batch_size(), size_t(7), rows}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    db_.set_fetch_batch_size(batch);
    Tracer::Global().Reset();
    EXPECT_EQ(conn_.MustExecute(q).rows.size(), rows);
    int64_t expected_fetches = int64_t((rows + batch - 1) / batch);
    EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexStart"), 1);
    EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexClose"), 1);
    EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexFetch"), expected_fetches);

    // The view agrees with the tracer it snapshots.
    EXPECT_EQ(uint64_t(ViewCalls(&conn_, "ODCIIndexFetch")),
              TracedCalls("ODCIIndexFetch"));
  }

  // DML maintenance dispatch shows up per-routine as well.
  conn_.MustExecute("INSERT INTO docs VALUES (9001, 'w2 w3 w4')");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexInsert"), 1);
}

TEST_F(ObservabilityTest, VOdciCallsSumPreservingAtParallelism4) {
  constexpr int kDocs = 150;
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "docs", kDocs, 10, 150, 0.8, 5).ok());
  Tracer::Global().Reset();
  db_.set_parallelism(4);
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  // The build is serial at any parallelism: one ODCIIndexCreate.
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexCreate"), 1);
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexCreateStorage"), 0);
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexInsert"), 0);

  // A scan at parallelism 4 is the same serial Start/Fetch*/Close cycle
  // as at parallelism 1, so Start and Close pair exactly.
  QueryResult direct = conn_.MustExecute(
      "SELECT id FROM docs WHERE Contains(body, 'w2')");
  ASSERT_GT(direct.rows.size(), 0u);
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexStart"), 1);
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexClose"), 1);
}

TEST_F(ObservabilityTest, VStorageMetricsListsEveryCounter) {
  conn_.MustExecute("CREATE TABLE t (n INTEGER)");
  conn_.MustExecute("INSERT INTO t VALUES (1), (2)");
  conn_.MustExecute("SELECT n FROM t");

  QueryResult r = conn_.MustExecute("SELECT * FROM v$storage_metrics");
  size_t counters = 0;
  ForEachMetric(StorageMetrics{}, [&](const char*, uint64_t) { ++counters; });
  EXPECT_EQ(r.rows.size(), counters);
  ASSERT_EQ(r.column_names.size(), 2u);
  EXPECT_EQ(r.column_names[0], "metric");
  EXPECT_EQ(r.column_names[1], "value");

  bool found = false;
  for (const Row& row : r.rows) {
    if (row[0].AsVarchar() == "table_rows_read") {
      found = true;
      EXPECT_GE(row[1].AsInteger(), 2);  // at least our SELECT's two rows
    }
  }
  EXPECT_TRUE(found);
}

// ---- system views exist only for the statement that reads them ----

using SystemViewTest = ObservabilityTest;

std::vector<std::string> Column0(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) out.push_back(row[0].AsVarchar());
  return out;
}

TEST_F(SystemViewTest, UserTablesListsOnlyUserTablesAfterAPerfViewQuery) {
  conn_.MustExecute("CREATE TABLE t (n INTEGER)");
  conn_.MustExecute("SELECT COUNT(*) FROM v$partitions");
  EXPECT_EQ(db_.catalog().TableNames(), std::vector<std::string>{"t"});
  EXPECT_EQ(Column0(conn_.MustExecute("SELECT table_name FROM user_tables")),
            std::vector<std::string>{"t"});
  EXPECT_EQ(db_.catalog().TableNames(), std::vector<std::string>{"t"});
}

TEST_F(SystemViewTest, ExplainOverSystemViewsWorksOnAFreshDatabase) {
  for (const char* view : {"v$odci_calls", "user_indexes"}) {
    for (const char* explain : {"EXPLAIN ", "EXPLAIN ANALYZE "}) {
      std::string sql = std::string(explain) + "SELECT * FROM " + view;
      Result<QueryResult> r = conn_.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      EXPECT_NE(r->message.find(view), std::string::npos) << r->message;
    }
  }
  EXPECT_TRUE(db_.catalog().TableNames().empty());
}

TEST_F(SystemViewTest, DmlAndDdlNamingASystemViewFail) {
  conn_.MustExecute("CREATE TABLE t (n INTEGER)");
  conn_.MustExecute("CREATE INDEX t_n ON t(n)");
  conn_.MustExecute("SELECT COUNT(*) FROM user_indexes");
  conn_.MustExecute("SELECT COUNT(*) FROM v$odci_calls");
  for (const char* sql :
       {"INSERT INTO user_indexes VALUES ('x', 't', 'n', 'BTREE', NULL)",
        "UPDATE user_tables SET num_rows = 0", "DELETE FROM v$odci_calls",
        "DROP TABLE user_indexes",
        "CREATE INDEX ui ON user_indexes(index_name)"}) {
    Result<QueryResult> r = conn_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
        << sql << ": " << r.status().ToString();
  }
  EXPECT_EQ(Column0(conn_.MustExecute("SELECT index_name FROM user_indexes")),
            std::vector<std::string>{"t_n"});
}

TEST_F(SystemViewTest, CreateTableWithASystemViewNameFails) {
  for (const char* sql : {"CREATE TABLE user_indexes (x INTEGER)",
                          "CREATE TABLE V$ODCI_CALLS (x INTEGER)"}) {
    Result<QueryResult> r = conn_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << r.status().ToString();
  }
  conn_.MustExecute("CREATE TABLE t (x INTEGER)");
  conn_.MustExecute("INSERT INTO t VALUES (42)");
  EXPECT_EQ(
      conn_.MustExecute("SELECT COUNT(*) FROM user_indexes").rows[0][0]
          .AsInteger(),
      0);
  conn_.MustExecute("SELECT * FROM v$storage_metrics");
  EXPECT_EQ(conn_.MustExecute("SELECT x FROM t").rows[0][0].AsInteger(), 42);
  EXPECT_EQ(db_.catalog().TableNames(), std::vector<std::string>{"t"});
}

TEST_F(SystemViewTest, NamingOneViewBuildsOnlyThatView) {
  // No table is partitioned, so V$PARTITIONS is empty; filling its siblings
  // would write one row per counter or traced routine.
  StorageMetrics before = GlobalMetrics().Snapshot();
  conn_.MustExecute("SELECT COUNT(*) FROM v$partitions");
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).table_rows_written, 0u);
}

}  // namespace
}  // namespace exi
