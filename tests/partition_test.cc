// Partitioned tables with LOCAL domain indexes (DESIGN.md §7): partition
// DDL and catalog metadata, DML routing into partition segments, static
// partition pruning in the planner, per-partition index slices with O(1)
// partition-level maintenance, and slice-by-slice scans that match at
// every parallelism.
//
// The Tracer and GlobalMetrics are process-wide, so tests that assert
// exact counts reset the tracer / snapshot the metrics first; tests in
// this binary run serially (the parallel-join cases spawn their own pool
// work internally and are TSan-clean).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "common/metrics.h"
#include "common/tracer.h"
#include "engine/connection.h"
#include "engine/workloads.h"

namespace exi {
namespace {

// Calls recorded for `routine` in the global tracer (all indextypes).
uint64_t TracedCalls(const std::string& routine) {
  uint64_t calls = 0;
  for (const auto& [key, stats] : Tracer::Global().Snapshot()) {
    if (key.second == routine) calls += stats.calls;
  }
  return calls;
}

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() : conn_(&db_) {
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
    Tracer::Global().Reset();
  }

  // sales(id, region, amount) RANGE-partitioned on id into three
  // partitions: [..100), [100..200), [200..inf).
  void CreateSales() {
    conn_.MustExecute(
        "CREATE TABLE sales (id INTEGER, region VARCHAR(16), "
        "amount INTEGER) PARTITION BY RANGE (id) ("
        "PARTITION p_low VALUES LESS THAN (100), "
        "PARTITION p_mid VALUES LESS THAN (200), "
        "PARTITION p_high VALUES LESS THAN (MAXVALUE))");
  }

  // docs(id, body) RANGE-partitioned on id, with word markers per
  // partition so queries can target one partition's documents.
  void CreatePartitionedDocs() {
    conn_.MustExecute(
        "CREATE TABLE docs (id INTEGER, body VARCHAR(256)) "
        "PARTITION BY RANGE (id) ("
        "PARTITION d0 VALUES LESS THAN (100), "
        "PARTITION d1 VALUES LESS THAN (200), "
        "PARTITION d2 VALUES LESS THAN (MAXVALUE))");
    for (int id = 0; id < 300; ++id) {
      std::string word = "w" + std::to_string(id / 100);  // w0/w1/w2
      conn_.MustExecute("INSERT INTO docs VALUES (" + std::to_string(id) +
                        ", '" + word + " common x" + std::to_string(id) +
                        "')");
    }
  }

  int64_t Count(const std::string& table, const std::string& where) {
    std::string sql = "SELECT COUNT(*) FROM " + table;
    if (!where.empty()) sql += " WHERE " + where;
    return conn_.MustExecute(sql).rows[0][0].AsInteger();
  }

  // segment_rows for one partition, via the V$PARTITIONS view.
  int64_t PartitionRows(const std::string& table, const std::string& part) {
    QueryResult r = conn_.MustExecute(
        "SELECT segment_rows FROM v$partitions WHERE table_name = '" +
        table + "' AND partition_name = '" + part + "'");
    return r.rows.empty() ? -1 : r.rows[0][0].AsInteger();
  }

  int64_t PartitionCount(const std::string& table) {
    return conn_.MustExecute(
                   "SELECT COUNT(*) FROM v$partitions WHERE table_name = '" +
                   table + "'")
        .rows[0][0]
        .AsInteger();
  }

  Database db_;
  Connection conn_;
};

TEST_F(PartitionTest, RangeDdlPopulatesVPartitions) {
  CreateSales();
  QueryResult r = conn_.MustExecute(
      "SELECT partition_name, method, key_column, high_value "
      "FROM v$partitions WHERE table_name = 'sales'");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "p_low");
  EXPECT_EQ(r.rows[0][1].AsVarchar(), "RANGE");
  EXPECT_EQ(r.rows[0][2].AsVarchar(), "id");
  EXPECT_EQ(r.rows[0][3].AsVarchar(), "100");
  EXPECT_EQ(r.rows[1][3].AsVarchar(), "200");
  EXPECT_EQ(r.rows[2][0].AsVarchar(), "p_high");
  EXPECT_EQ(r.rows[2][3].AsVarchar(), "MAXVALUE");
}

TEST_F(PartitionTest, CreateTableRejectsBadPartitionSpecs) {
  // Bounds must be strictly increasing.
  EXPECT_FALSE(conn_.Execute(
                        "CREATE TABLE t1 (a INTEGER) PARTITION BY RANGE (a) "
                        "(PARTITION p0 VALUES LESS THAN (10), "
                        "PARTITION p1 VALUES LESS THAN (10))")
                   .ok());
  // MAXVALUE only in the last partition.
  EXPECT_FALSE(conn_.Execute(
                        "CREATE TABLE t2 (a INTEGER) PARTITION BY RANGE (a) "
                        "(PARTITION p0 VALUES LESS THAN (MAXVALUE), "
                        "PARTITION p1 VALUES LESS THAN (10))")
                   .ok());
  // Duplicate partition names.
  EXPECT_FALSE(conn_.Execute(
                        "CREATE TABLE t3 (a INTEGER) PARTITION BY RANGE (a) "
                        "(PARTITION p0 VALUES LESS THAN (10), "
                        "PARTITION p0 VALUES LESS THAN (20))")
                   .ok());
  // Partition key must name a column.
  EXPECT_FALSE(conn_.Execute(
                        "CREATE TABLE t4 (a INTEGER) PARTITION BY RANGE (b) "
                        "(PARTITION p0 VALUES LESS THAN (10))")
                   .ok());
  // A failed partitioned CREATE leaves no table behind.
  EXPECT_FALSE(conn_.Execute("SELECT * FROM t1").ok());
}

TEST_F(PartitionTest, InsertRoutesRowsToPartitions) {
  CreateSales();
  conn_.MustExecute(
      "INSERT INTO sales VALUES (5, 'west', 10), (150, 'east', 20), "
      "(199, 'east', 30), (1000, 'north', 40)");
  EXPECT_EQ(PartitionRows("sales", "p_low"), 1);
  EXPECT_EQ(PartitionRows("sales", "p_mid"), 2);
  EXPECT_EQ(PartitionRows("sales", "p_high"), 1);
  // Full scans still see every partition's rows.
  EXPECT_EQ(Count("sales", ""), 4);
  EXPECT_EQ(Count("sales", "amount >= 20"), 3);
}

TEST_F(PartitionTest, InsertAboveTopBoundFails) {
  conn_.MustExecute(
      "CREATE TABLE bounded (a INTEGER) PARTITION BY RANGE (a) "
      "(PARTITION p0 VALUES LESS THAN (10), "
      "PARTITION p1 VALUES LESS THAN (20))");
  Result<QueryResult> r = conn_.Execute("INSERT INTO bounded VALUES (25)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("14400"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(Count("bounded", ""), 0);
  // A key inside the bounds still routes fine afterwards.
  conn_.MustExecute("INSERT INTO bounded VALUES (15)");
  EXPECT_EQ(Count("bounded", ""), 1);
}

TEST_F(PartitionTest, UpdateMovingRowAcrossPartitionsRejected) {
  CreateSales();
  conn_.MustExecute("INSERT INTO sales VALUES (50, 'west', 10)");
  // Moving the key into another partition is rejected (no row movement).
  Result<QueryResult> r =
      conn_.Execute("UPDATE sales SET id = 150 WHERE id = 50");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("14402"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(Count("sales", "id = 50"), 1);
  // Key updates within the partition and non-key updates are fine.
  conn_.MustExecute("UPDATE sales SET id = 60 WHERE id = 50");
  conn_.MustExecute("UPDATE sales SET amount = 99 WHERE id = 60");
  EXPECT_EQ(Count("sales", "id = 60 AND amount = 99"), 1);
}

TEST_F(PartitionTest, HashPartitioningRoutesAndPrunesOnEquality) {
  conn_.MustExecute(
      "CREATE TABLE h (k INTEGER, v INTEGER) "
      "PARTITION BY HASH (k) PARTITIONS 4");
  for (int i = 0; i < 64; ++i) {
    conn_.MustExecute("INSERT INTO h VALUES (" + std::to_string(i) + ", " +
                      std::to_string(i * 2) + ")");
  }
  // Every row landed somewhere, and the buckets are reasonably spread.
  int64_t total = 0, populated = 0;
  for (int p = 0; p < 4; ++p) {
    int64_t rows = PartitionRows("h", "p" + std::to_string(p));
    ASSERT_GE(rows, 0);
    total += rows;
    if (rows > 0) ++populated;
  }
  EXPECT_EQ(total, 64);
  EXPECT_GE(populated, 2);
  // Equality on the hash key prunes to one bucket; ranges cannot prune.
  QueryResult eq = conn_.MustExecute("EXPLAIN SELECT v FROM h WHERE k = 7");
  EXPECT_NE(eq.message.find("1 of 4 partitions survive"), std::string::npos)
      << eq.message;
  QueryResult rg = conn_.MustExecute("EXPLAIN SELECT v FROM h WHERE k < 7");
  EXPECT_EQ(rg.message.find("1 of 4 partitions survive"), std::string::npos);
  EXPECT_EQ(Count("h", "k = 7"), 1);
}

TEST_F(PartitionTest, AddPartitionExtendsRange) {
  conn_.MustExecute(
      "CREATE TABLE grow (a INTEGER) PARTITION BY RANGE (a) "
      "(PARTITION p0 VALUES LESS THAN (10))");
  // New bound must be above the current top.
  EXPECT_FALSE(
      conn_.Execute("ALTER TABLE grow ADD PARTITION bad VALUES LESS THAN (5)")
          .ok());
  // RANGE requires a bound clause.
  EXPECT_FALSE(conn_.Execute("ALTER TABLE grow ADD PARTITION bad2").ok());
  conn_.MustExecute("ALTER TABLE grow ADD PARTITION p1 VALUES LESS THAN (20)");
  conn_.MustExecute(
      "ALTER TABLE grow ADD PARTITION p2 VALUES LESS THAN (MAXVALUE)");
  // Nothing can sit above a MAXVALUE partition.
  EXPECT_FALSE(
      conn_.Execute("ALTER TABLE grow ADD PARTITION p3 VALUES LESS THAN (40)")
          .ok());
  EXPECT_EQ(PartitionCount("grow"), 3);
  conn_.MustExecute("INSERT INTO grow VALUES (15), (150)");
  EXPECT_EQ(PartitionRows("grow", "p1"), 1);
  EXPECT_EQ(PartitionRows("grow", "p2"), 1);
}

TEST_F(PartitionTest, DropPartitionRemovesRowsOnly) {
  CreateSales();
  conn_.MustExecute(
      "INSERT INTO sales VALUES (5, 'west', 10), (150, 'east', 20), "
      "(1000, 'north', 40)");
  conn_.MustExecute("ALTER TABLE sales DROP PARTITION p_mid");
  EXPECT_EQ(PartitionCount("sales"), 2);
  EXPECT_EQ(Count("sales", ""), 2);
  EXPECT_EQ(Count("sales", "id = 150"), 0);
  EXPECT_EQ(Count("sales", "id = 5"), 1);
  // The dropped range merges into the next partition: new rows for it land
  // in p_high (the rows that were dropped stay gone).
  conn_.MustExecute("INSERT INTO sales VALUES (150, 'x', 1)");
  EXPECT_EQ(PartitionRows("sales", "p_high"), 2);
  // Unknown partitions and the last partition are protected.
  EXPECT_FALSE(conn_.Execute("ALTER TABLE sales DROP PARTITION nope").ok());
  conn_.MustExecute("ALTER TABLE sales DROP PARTITION p_low");
  EXPECT_FALSE(conn_.Execute("ALTER TABLE sales DROP PARTITION p_high").ok());
}

TEST_F(PartitionTest, TruncatePartitionLeavesSiblings) {
  CreateSales();
  conn_.MustExecute(
      "INSERT INTO sales VALUES (5, 'west', 10), (150, 'east', 20), "
      "(1000, 'north', 40)");
  conn_.MustExecute("ALTER TABLE sales TRUNCATE PARTITION p_mid");
  EXPECT_EQ(PartitionCount("sales"), 3);  // partition stays, rows go
  EXPECT_EQ(PartitionRows("sales", "p_mid"), 0);
  EXPECT_EQ(Count("sales", ""), 2);
  // The truncated partition keeps accepting its key range.
  conn_.MustExecute("INSERT INTO sales VALUES (150, 'east', 21)");
  EXPECT_EQ(PartitionRows("sales", "p_mid"), 1);
}

TEST_F(PartitionTest, SeqScanPruningCountsInExplainAndMetrics) {
  CreateSales();
  for (int i = 0; i < 30; ++i) {
    conn_.MustExecute("INSERT INTO sales VALUES (" + std::to_string(i * 10) +
                      ", 'r', " + std::to_string(i) + ")");
  }
  conn_.MustExecute("ANALYZE sales");

  QueryResult plan =
      conn_.MustExecute("EXPLAIN SELECT amount FROM sales WHERE id < 100");
  EXPECT_NE(plan.message.find("1 of 3 partitions survive"), std::string::npos)
      << plan.message;
  EXPECT_NE(plan.message.find("PartitionSeqScan"), std::string::npos);

  StorageMetrics before = GlobalMetrics().Snapshot();
  EXPECT_EQ(Count("sales", "id < 100"), 10);
  StorageMetrics after = GlobalMetrics().Snapshot();
  EXPECT_EQ(after.partitions_scanned - before.partitions_scanned, 1u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 2u);

  // Un-prunable predicates scan every partition.
  before = GlobalMetrics().Snapshot();
  EXPECT_EQ(Count("sales", "amount >= 0"), 30);
  after = GlobalMetrics().Snapshot();
  EXPECT_EQ(after.partitions_scanned - before.partitions_scanned, 3u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 0u);

  // EXPLAIN ANALYZE reports the scan's actual row count on the node.
  QueryResult ea = conn_.MustExecute(
      "EXPLAIN ANALYZE SELECT amount FROM sales WHERE id < 100");
  EXPECT_NE(ea.message.find("partitions=1/3"), std::string::npos)
      << ea.message;
}

TEST_F(PartitionTest, PartitionKeywordsRemainOrdinaryIdentifiers) {
  // PARTITION and VALUES stay legal as table and column names outside the
  // partition clauses.
  conn_.MustExecute("CREATE TABLE partition (values INTEGER)");
  conn_.MustExecute("INSERT INTO partition VALUES (1), (2), (3)");
  QueryResult r = conn_.MustExecute(
      "SELECT values FROM partition WHERE values > 1");
  EXPECT_EQ(r.rows.size(), 2u);
  conn_.MustExecute("UPDATE partition SET values = 9 WHERE values = 3");
  EXPECT_EQ(Count("partition", "values = 9"), 1);
  conn_.MustExecute("DROP TABLE partition");
}

TEST_F(PartitionTest, LocalTextIndexBuildsSlicePerPartition) {
  CreatePartitionedDocs();
  Tracer::Global().Reset();
  StorageMetrics before = GlobalMetrics().Snapshot();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  StorageMetrics after = GlobalMetrics().Snapshot();
  // One independently ODCIIndexCreate'd storage object per partition.
  EXPECT_EQ(after.local_index_storages - before.local_index_storages, 3u);
  EXPECT_EQ(TracedCalls("ODCIIndexCreate"), 3u);
  conn_.MustExecute("ANALYZE docs");

  // The index answers queries spanning every partition.
  EXPECT_EQ(Count("docs", "Contains(body, 'common')"), 300);
  EXPECT_EQ(Count("docs", "Contains(body, 'w1')"), 100);
  // V$PARTITIONS reports one local slice per partition.
  QueryResult r = conn_.MustExecute(
      "SELECT local_index_slices FROM v$partitions WHERE table_name = "
      "'docs'");
  ASSERT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) EXPECT_EQ(row[0].AsInteger(), 1);
}

TEST_F(PartitionTest, PrunedDomainIndexScanComposesWithPruning) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  const std::string q =
      "SELECT id FROM docs WHERE Contains(body, 'common') AND id < 100";
  QueryResult plan = conn_.MustExecute("EXPLAIN " + q);
  EXPECT_NE(plan.message.find("PartitionedDomainIndex"), std::string::npos)
      << plan.message;
  EXPECT_NE(plan.message.find("partitions=1/3"), std::string::npos)
      << plan.message;

  StorageMetrics before = GlobalMetrics().Snapshot();
  QueryResult r = conn_.MustExecute(q);
  StorageMetrics after = GlobalMetrics().Snapshot();
  EXPECT_EQ(r.rows.size(), 100u);
  EXPECT_EQ(after.partitions_scanned - before.partitions_scanned, 1u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 2u);
}

TEST_F(PartitionTest, DropPartitionWithLocalIndexDoesZeroRowDeletes) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  // The headline partition win: dropping a populated partition is one
  // ODCIIndexDrop of its slice — never a per-row ODCIIndexDelete storm.
  Tracer::Global().Reset();
  conn_.MustExecute("ALTER TABLE docs DROP PARTITION d1");
  EXPECT_EQ(TracedCalls("ODCIIndexDelete"), 0u);
  EXPECT_EQ(TracedCalls("ODCIIndexDrop"), 1u);
  // V$ODCI_CALLS (snapshotting the same tracer) agrees.
  QueryResult v = conn_.MustExecute(
      "SELECT calls FROM v$odci_calls WHERE routine = 'ODCIIndexDelete'");
  EXPECT_TRUE(v.rows.empty());

  // The surviving slices still answer queries; d1's docs are gone.
  EXPECT_EQ(Count("docs", "Contains(body, 'w1')"), 0);
  EXPECT_EQ(Count("docs", "Contains(body, 'common')"), 200);
}

TEST_F(PartitionTest, TruncatePartitionUsesOdciTruncateNotDeletes) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  Tracer::Global().Reset();
  conn_.MustExecute("ALTER TABLE docs TRUNCATE PARTITION d0");
  EXPECT_EQ(TracedCalls("ODCIIndexDelete"), 0u);
  EXPECT_EQ(TracedCalls("ODCIIndexTruncate"), 1u);
  EXPECT_EQ(Count("docs", "Contains(body, 'w0')"), 0);
  EXPECT_EQ(Count("docs", "Contains(body, 'common')"), 200);
  // The emptied slice resumes maintenance for new rows.
  conn_.MustExecute("INSERT INTO docs VALUES (1, 'w0 fresh common')");
  EXPECT_EQ(Count("docs", "Contains(body, 'fresh')"), 1);
}

TEST_F(PartitionTest, DmlMaintenanceRoutesToOwningSlice) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");

  conn_.MustExecute("INSERT INTO docs VALUES (350, 'needle common')");
  EXPECT_EQ(Count("docs", "Contains(body, 'needle')"), 1);
  conn_.MustExecute("UPDATE docs SET body = 'thread common' WHERE id = 350");
  EXPECT_EQ(Count("docs", "Contains(body, 'needle')"), 0);
  EXPECT_EQ(Count("docs", "Contains(body, 'thread')"), 1);
  conn_.MustExecute("DELETE FROM docs WHERE id = 350");
  EXPECT_EQ(Count("docs", "Contains(body, 'thread')"), 0);
  // Multi-row DML spanning partitions maintains every touched slice.
  conn_.MustExecute(
      "INSERT INTO docs VALUES (50, 'multi common'), (250, 'multi common')");
  EXPECT_EQ(Count("docs", "Contains(body, 'multi')"), 2);
  conn_.MustExecute("DELETE FROM docs WHERE Contains(body, 'multi')");
  EXPECT_EQ(Count("docs", "Contains(body, 'multi')"), 0);
}

TEST_F(PartitionTest, AddPartitionCreatesAndMaintainsNewSlice) {
  conn_.MustExecute(
      "CREATE TABLE logs (id INTEGER, body VARCHAR(128)) "
      "PARTITION BY RANGE (id) (PARTITION l0 VALUES LESS THAN (100))");
  conn_.MustExecute("INSERT INTO logs VALUES (1, 'alpha old')");
  conn_.MustExecute(
      "CREATE INDEX logs_text ON logs(body) INDEXTYPE IS TextIndexType");

  Tracer::Global().Reset();
  conn_.MustExecute("ALTER TABLE logs ADD PARTITION l1 VALUES LESS THAN (200)");
  // The new slice is created empty — no backfill work for older partitions.
  EXPECT_EQ(TracedCalls("ODCIIndexCreate"), 1u);
  conn_.MustExecute("INSERT INTO logs VALUES (150, 'beta new')");
  EXPECT_EQ(Count("logs", "Contains(body, 'beta')"), 1);
  EXPECT_EQ(Count("logs", "Contains(body, 'alpha')"), 1);
}

TEST_F(PartitionTest, LocalSpatialIndexPartitionedEndToEnd) {
  conn_.MustExecute(
      "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY) "
      "PARTITION BY RANGE (gid) ("
      "PARTITION s0 VALUES LESS THAN (40), "
      "PARTITION s1 VALUES LESS THAN (MAXVALUE))");
  Rng rng(7);
  for (int i = 0; i < 80; ++i) {
    spatial::Geometry g = workload::RandomRect(&rng, 300.0);
    ASSERT_TRUE(db_.InsertRow("parks",
                              {Value::Integer(i), spatial::ToValue(g)},
                              nullptr)
                    .ok());
  }
  conn_.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS "
      "SpatialIndexType");
  conn_.MustExecute("ANALYZE parks");

  // A probe window query answered through the local index matches the
  // functional (no-index) evaluation over the same data.
  const std::string lit = "SDO_GEOMETRY(1000,1000,5000,5000)";
  QueryResult indexed = conn_.MustExecute(
      "SELECT gid FROM parks WHERE Sdo_Relate(geometry, " + lit +
      ", 'mask=ANYINTERACT')");
  std::set<int64_t> got;
  for (const Row& row : indexed.rows) got.insert(row[0].AsInteger());

  conn_.MustExecute("DROP INDEX p_tile");
  QueryResult functional = conn_.MustExecute(
      "SELECT gid FROM parks WHERE Sdo_Relate(geometry, " + lit +
      ", 'mask=ANYINTERACT')");
  std::set<int64_t> want;
  for (const Row& row : functional.rows) want.insert(row[0].AsInteger());
  EXPECT_EQ(got, want);
}

// The optimizer asks each LOCAL slice about its own rows, so a HASH-4
// table and a plain table holding the same rows get the same estimated
// selectivity, and both pick the domain index for a large window.
TEST_F(PartitionTest, LocalAndGlobalSpatialEstimatesAgree) {
  conn_.MustExecute(
      "CREATE TABLE hparks (gid INTEGER, geometry OBJECT SDO_GEOMETRY) "
      "PARTITION BY HASH (gid) PARTITIONS 4");
  conn_.MustExecute(
      "CREATE TABLE gparks (gid INTEGER, geometry OBJECT SDO_GEOMETRY)");
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    Row row = {Value::Integer(i),
               spatial::ToValue(workload::RandomRect(&rng, 300.0))};
    ASSERT_TRUE(db_.InsertRow("hparks", row, nullptr).ok());
    ASSERT_TRUE(db_.InsertRow("gparks", row, nullptr).ok());
  }
  for (const char* table : {"hparks", "gparks"}) {
    conn_.MustExecute(std::string("CREATE INDEX ") + table + "_tile ON " +
                      table + "(geometry) INDEXTYPE IS SpatialIndexType");
    conn_.MustExecute(std::string("ANALYZE ") + table);
  }

  // The domain-index candidate's "sel=" figure, and whether it won.
  auto domain_candidate = [&](const std::string& table,
                              const std::string& window) {
    std::string plan =
        conn_
            .MustExecute("EXPLAIN SELECT gid FROM " + table +
                         " WHERE Sdo_Relate(geometry, " + window +
                         ", 'mask=ANYINTERACT')")
            .message;
    size_t at = plan.find("DomainIndex(" + table + "_tile)");
    EXPECT_NE(at, std::string::npos) << plan;
    size_t line = plan.rfind('\n', at) + 1;
    size_t sel = plan.find("sel=", at) + 4;
    return std::make_pair(plan.substr(sel, plan.find(' ', sel) - sel),
                          plan.compare(line, 4, "  * ") == 0);
  };
  for (const char* window :
       {"SDO_GEOMETRY(1000,1000,1800,1800)",
        "SDO_GEOMETRY(2000,2000,5000,5000)",
        "SDO_GEOMETRY(1500,1500,8500,8500)"}) {
    EXPECT_EQ(domain_candidate("hparks", window).first,
              domain_candidate("gparks", window).first)
        << window;
  }
  EXPECT_TRUE(
      domain_candidate("hparks", "SDO_GEOMETRY(1500,1500,8500,8500)").second);
  EXPECT_TRUE(
      domain_candidate("gparks", "SDO_GEOMETRY(1500,1500,8500,8500)").second);
}

TEST_F(PartitionTest, ParallelPartitionScanMatchesSerial) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  const std::string q = "SELECT id FROM docs WHERE Contains(body, 'common')";
  QueryResult serial = conn_.MustExecute(q);
  ASSERT_EQ(serial.rows.size(), 300u);

  db_.set_parallelism(4);
  QueryResult plan = conn_.MustExecute("EXPLAIN " + q);
  EXPECT_NE(plan.message.find("partitions=3/3"), std::string::npos)
      << plan.message;
  QueryResult parallel = conn_.MustExecute(q);
  db_.set_parallelism(1);

  // Slices scan in partition order at every parallelism, so the row
  // stream matches the serial plan exactly (not just as a set).
  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(parallel.rows[i][0].AsInteger(), serial.rows[i][0].AsInteger());
  }
}

// A domain-index join whose inner table has a LOCAL index probes every
// slice per outer row: the tile index answers like the functional operator,
// in the same order at every parallelism, without touching the partition
// counters (join probes are not partition-aware scans).
TEST_F(PartitionTest, JoinProbesEverySliceOfLocalInnerIndex) {
  conn_.MustExecute(
      "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY) "
      "PARTITION BY HASH (gid) PARTITIONS 4");
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    spatial::Geometry g = workload::RandomRect(&rng, 1500.0);
    ASSERT_TRUE(db_.InsertRow("parks",
                              {Value::Integer(i), spatial::ToValue(g)},
                              nullptr)
                    .ok());
  }
  constexpr uint64_t kRoads = 25;
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "roads", kRoads, 2000.0, 12).ok());
  conn_.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS "
      "SpatialIndexType");
  conn_.MustExecute("ANALYZE parks");
  conn_.MustExecute("ANALYZE roads");

  const std::string q =
      "SELECT r.gid, p.gid FROM roads r, parks p "
      "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  QueryResult plan = conn_.MustExecute("EXPLAIN " + q);
  EXPECT_NE(plan.message.find("DomainIndexJoin(inner=parks via p_tile"),
            std::string::npos)
      << plan.message;
  EXPECT_EQ(plan.message.find("NestedLoopJoin"), std::string::npos)
      << plan.message;

  auto pairs = [](const QueryResult& r) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row : r.rows) {
      out.emplace_back(row[0].AsInteger(), row[1].AsInteger());
    }
    return out;
  };
  auto sorted = [](std::vector<std::pair<int64_t, int64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::pair<int64_t, int64_t>> want = sorted(pairs(
      conn_.MustExecute("SELECT r.gid, p.gid FROM roads r, parks p WHERE "
                        "SdoRelateFn(p.geometry, r.geometry, "
                        "'mask=ANYINTERACT')")));
  ASSERT_FALSE(want.empty());

  Tracer::Global().Reset();
  StorageMetrics before = GlobalMetrics().Snapshot();
  std::vector<std::pair<int64_t, int64_t>> serial = pairs(conn_.MustExecute(q));
  StorageMetrics after = GlobalMetrics().Snapshot();
  // One Start/Close pair per (outer row, inner slice).
  EXPECT_EQ(TracedCalls("ODCIIndexStart"), kRoads * 4);
  EXPECT_EQ(TracedCalls("ODCIIndexClose"), kRoads * 4);
  EXPECT_EQ(after.partitions_scanned, before.partitions_scanned);
  EXPECT_EQ(after.partitions_pruned, before.partitions_pruned);
  EXPECT_EQ(sorted(serial), want);

  db_.set_parallelism(4);
  QueryResult parallel_plan = conn_.MustExecute("EXPLAIN " + q);
  EXPECT_NE(parallel_plan.message.find("parallel=4"), std::string::npos)
      << parallel_plan.message;
  before = GlobalMetrics().Snapshot();
  std::vector<std::pair<int64_t, int64_t>> parallel =
      pairs(conn_.MustExecute(q));
  after = GlobalMetrics().Snapshot();
  db_.set_parallelism(1);
  EXPECT_EQ(after.partitions_scanned, before.partitions_scanned);
  EXPECT_EQ(after.partitions_pruned, before.partitions_pruned);
  // Probes merge in outer order and slices in slice order, so the parallel
  // stream equals the serial one row for row.
  EXPECT_EQ(parallel, serial);
}

// What one statement of the parity script produced: its result rows
// (rendered) and the ODCI routine calls it made.
struct StatementTrace {
  std::vector<std::string> rows;
  std::map<std::string, uint64_t> calls;
};

// Runs the same DML/query script against `table` — already created with a
// text index on body — and records each statement's rows and maintenance
// and scan call counts.
std::vector<StatementTrace> RunParityScript(Connection* conn,
                                            const std::string& table) {
  const std::vector<std::string> script = {
      "INSERT INTO " + table + " VALUES (1, 'oracle index')",
      "INSERT INTO " + table +
          " VALUES (2, 'spatial data'), (3, 'oracle text'), "
          "(4, 'image data')",
      "UPDATE " + table + " SET body = 'oracle spatial' WHERE id = 2",
      "DELETE FROM " + table + " WHERE id = 4",
      "BEGIN",
      "INSERT INTO " + table + " VALUES (5, 'oracle rollback')",
      "DELETE FROM " + table + " WHERE id = 1",
      "ROLLBACK",
      "SELECT id FROM " + table + " WHERE Contains(body, 'oracle')",
      "SELECT id, body FROM " + table + " WHERE Contains(body, 'spatial')",
      "SELECT COUNT(*) FROM " + table + " WHERE Contains(body, 'data')",
      "SELECT id FROM " + table + " WHERE Contains(body, 'rollback')",
  };
  const std::vector<std::string> routines = {
      "ODCIIndexInsert", "ODCIIndexUpdate", "ODCIIndexDelete",
      "ODCIIndexStart",  "ODCIIndexFetch",  "ODCIIndexClose"};
  std::vector<StatementTrace> out;
  for (const std::string& sql : script) {
    Tracer::Global().Reset();
    StatementTrace st;
    for (const Row& row : conn->MustExecute(sql).rows) {
      std::string text;
      for (const Value& v : row) text += v.ToString() + "|";
      st.rows.push_back(text);
    }
    for (const std::string& routine : routines) {
      st.calls[routine] = TracedCalls(routine);
    }
    out.push_back(std::move(st));
  }
  return out;
}

TEST_F(PartitionTest, GlobalAndSingleSliceLocalIndexBehaveAlike) {
  for (size_t dop : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(dop));
    db_.set_parallelism(dop);
    conn_.MustExecute("CREATE TABLE gdocs (id INTEGER, body VARCHAR(64))");
    conn_.MustExecute(
        "CREATE TABLE ldocs (id INTEGER, body VARCHAR(64)) "
        "PARTITION BY RANGE (id) (PARTITION pall VALUES LESS THAN (MAXVALUE))");
    conn_.MustExecute(
        "CREATE INDEX gdocs_text ON gdocs(body) INDEXTYPE IS TextIndexType");
    conn_.MustExecute(
        "CREATE INDEX ldocs_text ON ldocs(body) INDEXTYPE IS TextIndexType");

    std::vector<StatementTrace> global = RunParityScript(&conn_, "gdocs");
    std::vector<StatementTrace> local = RunParityScript(&conn_, "ldocs");
    ASSERT_EQ(global.size(), local.size());
    for (size_t i = 0; i < global.size(); ++i) {
      SCOPED_TRACE("statement " + std::to_string(i));
      EXPECT_EQ(global[i].rows, local[i].rows);
      // The call sequence is pinned at parallelism 1 only; above it,
      // fetches run ahead on pool threads and only the rows are contract.
      if (dop == 1) {
        EXPECT_EQ(global[i].calls, local[i].calls);
      }
    }
    // The script exercises every compared routine on both sides.
    std::map<std::string, uint64_t> total;
    for (const StatementTrace& st : global) {
      for (const auto& [routine, n] : st.calls) total[routine] += n;
    }
    for (const auto& [routine, n] : total) EXPECT_GT(n, 0u) << routine;

    conn_.MustExecute("DROP TABLE gdocs");
    conn_.MustExecute("DROP TABLE ldocs");
  }
  db_.set_parallelism(1);
}

TEST_F(PartitionTest, PartitionDdlInvalidatesCachedPlanState) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");

  const std::string q =
      "SELECT id FROM docs WHERE Contains(body, 'common') AND id >= 200";
  QueryResult before = conn_.MustExecute("EXPLAIN " + q);
  EXPECT_NE(before.message.find("partitions=1/3"), std::string::npos)
      << before.message;
  EXPECT_EQ(conn_.MustExecute(q).rows.size(), 100u);

  // Dropping the surviving partition must not leave the memoized
  // selectivity/cost (or the pruning outcome) stale.
  conn_.MustExecute("ALTER TABLE docs DROP PARTITION d2");
  QueryResult after = conn_.MustExecute("EXPLAIN " + q);
  EXPECT_EQ(after.message.find("partitions=1/3"), std::string::npos)
      << after.message;
  EXPECT_EQ(conn_.MustExecute(q).rows.size(), 0u);

  // And ADD PARTITION re-expands the plan space.
  conn_.MustExecute(
      "ALTER TABLE docs ADD PARTITION d2b VALUES LESS THAN (MAXVALUE)");
  conn_.MustExecute("INSERT INTO docs VALUES (205, 'common back')");
  EXPECT_EQ(conn_.MustExecute(q).rows.size(), 1u);
}

}  // namespace
}  // namespace exi
