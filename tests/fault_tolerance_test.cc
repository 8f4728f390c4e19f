// Fault-tolerant domain-index lifecycle (docs/fault-tolerance.md): the
// retry/backoff ODCI call guard, the deferred maintenance policy that marks
// indexes FAILED instead of failing DML, planner SKIP_UNUSABLE fallback,
// V$DOMAIN_INDEXES, and ALTER INDEX ... REBUILD recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/tracer.h"
#include "core/odci.h"
#include "engine/connection.h"
#include "engine/workloads.h"
#include "posting_rows.h"
#include "test_cartridges.h"

namespace exi {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest() : conn_(&db_) {
    FailPointRegistry::Global().ClearAll();
    testcart::RegisterFlakyCartridge(db_.catalog());
    for (const char* sql : testcart::kFlakySetupSql) conn_.MustExecute(sql);
    conn_.MustExecute("CREATE TABLE t (v INTEGER)");
  }
  ~FaultToleranceTest() override { FailPointRegistry::Global().ClearAll(); }

  void Arm(const std::string& site, const std::string& spec) {
    conn_.MustExecute("SET FAILPOINT '" + site + "' = '" + spec + "'");
  }
  void Disarm(const std::string& site) {
    conn_.MustExecute("SET FAILPOINT '" + site + "' = OFF");
  }

  int64_t Count(const std::string& table, const std::string& where) {
    return conn_
        .MustExecute("SELECT COUNT(*) FROM " + table + " WHERE " + where)
        .rows[0][0]
        .AsInteger();
  }

  // One row from V$DOMAIN_INDEXES for `index_name`, as (status, retries).
  std::pair<std::string, int64_t> VdollarStatus(
      const std::string& index_name) {
    QueryResult r = conn_.MustExecute(
        "SELECT status, retries FROM v$domain_indexes WHERE index_name = '" +
        index_name + "'");
    EXPECT_EQ(r.rows.size(), 1u);
    return {r.rows[0][0].AsVarchar(), r.rows[0][1].AsInteger()};
  }

  // ODCIIndexDrop calls traced while `ddl` runs; `ddl` must fail.
  uint64_t DropsTracedByFailedDdl(const std::string& ddl) {
    TracerSnapshot before = Tracer::Global().Snapshot();
    EXPECT_FALSE(conn_.Execute(ddl).ok()) << ddl;
    uint64_t drops = 0;
    for (const auto& [key, stats] :
         TracerDelta(Tracer::Global().Snapshot(), before)) {
      if (key.second == "ODCIIndexDrop") drops += stats.calls;
    }
    return drops;
  }

  // A RANGE table docs(id, body) with three partitions and text rows.
  void CreatePartitionedDocs() {
    ASSERT_TRUE(text::InstallTextCartridge(&conn_).ok());
    conn_.MustExecute(
        "CREATE TABLE docs (id INTEGER, body VARCHAR(64)) "
        "PARTITION BY RANGE (id) (PARTITION p0 VALUES LESS THAN (100), "
        "PARTITION p1 VALUES LESS THAN (200), "
        "PARTITION p2 VALUES LESS THAN (300))");
    conn_.MustExecute(
        "INSERT INTO docs VALUES (1, 'alpha beta'), (150, 'beta gamma'), "
        "(250, 'gamma delta')");
  }

  Database db_;
  Connection conn_;
};

// The acceptance scenario: under the deferred policy a failing
// ODCIIndexInsert commits the DML, marks the index FAILED (visible in
// V$DOMAIN_INDEXES), EXPLAIN falls back to a seq scan, and ALTER INDEX ...
// REBUILD restores VALID with correct contents.
TEST_F(FaultToleranceTest, DeferredFailureMarksFailedAndRebuildRecovers) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("INSERT INTO t VALUES (1)");
  conn_.MustExecute("SET INDEX_MAINTENANCE = DEFERRED");
  EXPECT_EQ(db_.index_maintenance_policy(), IndexMaintenancePolicy::kDeferred);

  Arm("flaky/insert", "status=Internal");
  // The DML commits even though index maintenance failed.
  EXPECT_TRUE(conn_.Execute("INSERT INTO t VALUES (2)").ok());
  Disarm("flaky/insert");
  EXPECT_EQ(Count("t", "v = 2"), 1);

  auto [status, retries] = VdollarStatus("fidx");
  EXPECT_EQ(status, "FAILED");
  (void)retries;

  // Planner: the FAILED index is skipped and the operator predicate is
  // evaluated functionally over a seq scan — correct results, no index.
  QueryResult plan =
      conn_.MustExecute("EXPLAIN SELECT * FROM t WHERE FEq(v, 2)");
  EXPECT_NE(plan.message.find("skipped: status FAILED"), std::string::npos)
      << plan.message;
  EXPECT_NE(plan.message.find("SeqScan"), std::string::npos) << plan.message;
  EXPECT_EQ(Count("t", "FEq(v, 2)"), 1);

  // REBUILD re-runs the ODCIIndexCreate-style backfill and restores VALID;
  // the row inserted while FAILED is indexed now.
  conn_.MustExecute("ALTER INDEX fidx REBUILD");
  EXPECT_EQ(VdollarStatus("fidx").first, "VALID");
  QueryResult plan2 =
      conn_.MustExecute("EXPLAIN SELECT * FROM t WHERE FEq(v, 2)");
  EXPECT_NE(plan2.message.find("DomainIndex(fidx)"), std::string::npos)
      << plan2.message;
  EXPECT_EQ(Count("t", "FEq(v, 1)"), 1);
  EXPECT_EQ(Count("t", "FEq(v, 2)"), 1);
  conn_.MustExecute("SET INDEX_MAINTENANCE = STRICT");
}

TEST_F(FaultToleranceTest, TransientFailureIsRetriedAndSucceeds) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  StorageMetrics before = GlobalMetrics().Snapshot();
  // One transient failure, then success: the call guard absorbs it.
  Arm("flaky/insert", "times=1 status=IoError");
  EXPECT_TRUE(conn_.Execute("INSERT INTO t VALUES (3)").ok());
  Disarm("flaky/insert");
  StorageMetrics after = GlobalMetrics().Snapshot();
  EXPECT_EQ(after.odci_retries - before.odci_retries, 1u);
  EXPECT_EQ(after.odci_call_timeouts, before.odci_call_timeouts);
  // The retry is charged to the index and surfaced in V$DOMAIN_INDEXES.
  auto [status, retries] = VdollarStatus("fidx");
  EXPECT_EQ(status, "VALID");
  EXPECT_EQ(retries, 1);
  EXPECT_EQ(Count("t", "FEq(v, 3)"), 1);
}

TEST_F(FaultToleranceTest, BusyIsTransientToo) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  Arm("flaky/insert", "once status=Busy");
  EXPECT_TRUE(conn_.Execute("INSERT INTO t VALUES (4)").ok());
  Disarm("flaky/insert");
  EXPECT_EQ(Count("t", "FEq(v, 4)"), 1);
}

TEST_F(FaultToleranceTest, ExhaustedRetriesFailUnderStrictPolicy) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  // Always-transient: the guard retries max_attempts times, then gives up;
  // strict policy propagates the failure and the row rolls back.
  Arm("flaky/insert", "status=IoError");
  Result<QueryResult> r = conn_.Execute("INSERT INTO t VALUES (5)");
  Disarm("flaky/insert");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Count("t", "v = 5"), 0);
  EXPECT_EQ(VdollarStatus("fidx").first, "VALID");
}

TEST_F(FaultToleranceTest, RetryDeadlineAbandonsTheCall) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  OdciRetryPolicy tight;
  tight.max_attempts = 10;
  tight.initial_backoff_us = 200;
  tight.call_deadline_us = 1;  // any backoff overshoots the deadline
  db_.domains().set_retry_policy(tight);
  StorageMetrics before = GlobalMetrics().Snapshot();
  Arm("flaky/insert", "status=IoError");
  Result<QueryResult> r = conn_.Execute("INSERT INTO t VALUES (6)");
  Disarm("flaky/insert");
  db_.domains().set_retry_policy(OdciRetryPolicy{});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("retry deadline"), std::string::npos)
      << r.status().ToString();
  StorageMetrics after = GlobalMetrics().Snapshot();
  EXPECT_EQ(after.odci_call_timeouts - before.odci_call_timeouts, 1u);
}

TEST_F(FaultToleranceTest, ScanRacingStatusTransitionGetsOra1502) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("INSERT INTO t VALUES (1)");
  IndexInfo* idx = *db_.catalog().GetIndex("fidx");
  idx->slices[0].status = IndexStatus::kInProgress;
  // The planner re-plans around non-VALID indexes; a scan opened directly
  // against one (a plan cached before the transition) gets a clean error.
  OdciPredInfo pred =
      OdciPredInfo::BooleanTrue("FEq", {Value::Integer(1)});
  auto scan = db_.domains().StartScan("fidx", pred);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().message().find("ORA-01502"), std::string::npos)
      << scan.status().ToString();
  idx->slices[0].status = IndexStatus::kValid;
  EXPECT_TRUE(db_.domains().StartScan("fidx", pred).ok());
}

TEST_F(FaultToleranceTest, RebuildPartitionRestoresOneSlice) {
  conn_.MustExecute(
      "CREATE TABLE pt (v INTEGER) PARTITION BY RANGE (v) "
      "(PARTITION p0 VALUES LESS THAN (100), "
      "PARTITION p1 VALUES LESS THAN (200))");
  conn_.MustExecute("INSERT INTO pt VALUES (1), (150)");
  conn_.MustExecute("CREATE INDEX pidx ON pt(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("SET INDEX_MAINTENANCE = DEFERRED");

  // Fail maintenance for a row routed to p1: only that slice goes FAILED.
  Arm("flaky/insert", "status=Internal");
  EXPECT_TRUE(conn_.Execute("INSERT INTO pt VALUES (160)").ok());
  Disarm("flaky/insert");
  QueryResult r = conn_.MustExecute(
      "SELECT status, failed_slices, total_slices FROM v$domain_indexes "
      "WHERE index_name = 'pidx'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "FAILED");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 1);
  EXPECT_EQ(r.rows[0][2].AsInteger(), 2);

  // Queries needing p1 fall back to a seq scan but stay correct; queries
  // pruned to p0 may still use the index.
  EXPECT_EQ(Count("pt", "FEq(v, 160)"), 1);
  EXPECT_EQ(Count("pt", "FEq(v, 1)"), 1);

  conn_.MustExecute("ALTER INDEX pidx REBUILD PARTITION p1");
  QueryResult r2 = conn_.MustExecute(
      "SELECT status, failed_slices FROM v$domain_indexes "
      "WHERE index_name = 'pidx'");
  EXPECT_EQ(r2.rows[0][0].AsVarchar(), "VALID");
  EXPECT_EQ(r2.rows[0][1].AsInteger(), 0);
  // The backfill picked up the row inserted while the slice was FAILED.
  QueryResult plan =
      conn_.MustExecute("EXPLAIN SELECT * FROM pt WHERE FEq(v, 160)");
  EXPECT_NE(plan.message.find("PartitionedDomainIndex(pidx)"),
            std::string::npos)
      << plan.message;
  EXPECT_EQ(Count("pt", "FEq(v, 160)"), 1);
  conn_.MustExecute("SET INDEX_MAINTENANCE = STRICT");
}

// A domain-index join probes every slice of the inner index, so one FAILED
// slice sends the whole join to the nested-loop fallback (functional
// evaluation, reason in EXPLAIN) until that slice is rebuilt.
TEST_F(FaultToleranceTest, JoinFallsBackWhileAnInnerSliceIsFailed) {
  conn_.MustExecute(
      "CREATE TABLE pt (v INTEGER) PARTITION BY RANGE (v) "
      "(PARTITION p0 VALUES LESS THAN (100), "
      "PARTITION p1 VALUES LESS THAN (200))");
  conn_.MustExecute("INSERT INTO pt VALUES (1), (2), (150), (160)");
  conn_.MustExecute("CREATE INDEX pidx ON pt(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("CREATE TABLE probes (w INTEGER)");
  conn_.MustExecute("INSERT INTO probes VALUES (1), (150), (170), (160)");
  const std::string q =
      "SELECT q.w, p.v FROM probes q, pt p WHERE FEq(p.v, q.w)";
  auto explain = [&] { return conn_.MustExecute("EXPLAIN " + q).message; };
  auto rows = [&] {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row : conn_.MustExecute(q).rows) {
      out.emplace_back(row[0].AsInteger(), row[1].AsInteger());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_NE(explain().find("DomainIndexJoin(inner=pt via pidx"),
            std::string::npos);
  EXPECT_EQ(rows(), (std::vector<std::pair<int64_t, int64_t>>{
                        {1, 1}, {150, 150}, {160, 160}}));

  // A deferred maintenance failure on a row routed to p1 fails that slice.
  conn_.MustExecute("SET INDEX_MAINTENANCE = DEFERRED");
  Arm("flaky/insert", "status=Internal");
  EXPECT_TRUE(conn_.Execute("INSERT INTO pt VALUES (170)").ok());
  Disarm("flaky/insert");
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {1, 1}, {150, 150}, {160, 160}, {170, 170}};

  std::string plan = explain();
  EXPECT_NE(plan.find("domain index pidx skipped: status FAILED "
                      "(join fallback)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("DomainIndexJoin"), std::string::npos) << plan;
  EXPECT_EQ(rows(), want);

  conn_.MustExecute("ALTER INDEX pidx REBUILD PARTITION p1");
  plan = explain();
  EXPECT_NE(plan.find("DomainIndexJoin(inner=pt via pidx"), std::string::npos)
      << plan;
  EXPECT_EQ(rows(), want);
  conn_.MustExecute("SET INDEX_MAINTENANCE = STRICT");
}

// A failed statement rolls back to its savepoint, which restores a LOB it
// wrote.  The next write to that LOB in the same transaction must snapshot
// it again, or ROLLBACK cannot return it to its contents before BEGIN.
TEST_F(FaultToleranceTest, RollbackRestoresLobRewrittenAfterFailedStatement) {
  ASSERT_TRUE(chem::InstallChemCartridge(&conn_).ok());
  ASSERT_TRUE(text::InstallTextCartridge(&conn_).ok());
  conn_.MustExecute("CREATE TABLE mols (id INTEGER, smiles VARCHAR(200))");
  conn_.MustExecute("INSERT INTO mols VALUES (1, 'CCO')");
  conn_.MustExecute(
      "CREATE INDEX mc ON mols(smiles) INDEXTYPE IS ChemIndexType");
  conn_.MustExecute(
      "CREATE INDEX mt ON mols(smiles) INDEXTYPE IS TextIndexType");
  // Bytes in chem's fingerprint LOB, found through its metadata IOT.
  auto fingerprint_bytes = [&] {
    Result<Row> meta =
        (*db_.catalog().GetIot("mc$meta"))->Get({Value::Varchar("fp_lob")});
    EXPECT_TRUE(meta.ok());
    return *db_.catalog().lobs().Size(LobId((*meta)[1].AsInteger()));
  };
  const uint64_t before = fingerprint_bytes();
  ASSERT_GT(before, 0u);

  conn_.MustExecute("BEGIN");
  // The first ODCIIndexInsert is chem's, which appends a fingerprint; the
  // second is text's and fails.
  Arm("odci/insert", "nth=2 status=Internal");
  EXPECT_FALSE(conn_.Execute("INSERT INTO mols VALUES (2, 'CCC')").ok());
  Disarm("odci/insert");
  EXPECT_EQ(fingerprint_bytes(), before);
  conn_.MustExecute("INSERT INTO mols VALUES (3, 'CCN')");
  EXPECT_EQ(fingerprint_bytes(), 2 * before);
  conn_.MustExecute("ROLLBACK");

  EXPECT_EQ(Count("mols", "id > 0"), 1);
  EXPECT_EQ(fingerprint_bytes(), before);
}

TEST_F(FaultToleranceTest, RebuildOfHealthyGlobalIndexIsIdempotent) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("INSERT INTO t VALUES (1), (2)");
  conn_.MustExecute("ALTER INDEX fidx REBUILD");
  EXPECT_EQ(VdollarStatus("fidx").first, "VALID");
  EXPECT_EQ(Count("t", "FEq(v, 1)"), 1);
  EXPECT_EQ(Count("t", "FEq(v, 2)"), 1);
}

TEST_F(FaultToleranceTest, FailedRebuildLeavesUnusableNotInProgress) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("INSERT INTO t VALUES (1)");
  Arm("flaky/create", "status=Internal");
  EXPECT_FALSE(conn_.Execute("ALTER INDEX fidx REBUILD").ok());
  Disarm("flaky/create");
  // Never stuck IN_PROGRESS: the failed rebuild parks the index UNUSABLE.
  EXPECT_EQ(VdollarStatus("fidx").first, "UNUSABLE");
  // Data remains reachable through the seq-scan fallback, and a second
  // rebuild recovers.
  EXPECT_EQ(Count("t", "FEq(v, 1)"), 1);
  conn_.MustExecute("ALTER INDEX fidx REBUILD");
  EXPECT_EQ(VdollarStatus("fidx").first, "VALID");
}

// A CREATE INDEX whose second slice fails drops that slice's partial
// storage and unwinds the first slice, both visibly, leaving no orphan.
TEST_F(FaultToleranceTest, FailedLocalCreateTracesDropsAndLeavesNoOrphan) {
  CreatePartitionedDocs();
  Arm("odci/create", "nth=2 status=Internal");
  EXPECT_EQ(DropsTracedByFailedDdl(
                "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType"),
            2u);
  Disarm("odci/create");
  EXPECT_FALSE(db_.catalog().IndexExists("dtext"));
  EXPECT_TRUE(db_.catalog().IotNames().empty());
  EXPECT_TRUE(db_.catalog().IndexTableNames().empty());
}

// An ADD PARTITION whose second index's slice fails drops that slice and
// unwinds the first index's new slice, both visibly, and leaves the
// partition list and every index's storage as they were.
TEST_F(FaultToleranceTest, FailedAddPartitionTracesCleanupDrops) {
  CreatePartitionedDocs();
  conn_.MustExecute(
      "CREATE INDEX dtext1 ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute(
      "CREATE INDEX dtext2 ON docs(body) INDEXTYPE IS TextIndexType");
  auto partitions = [&] {
    std::vector<std::string> out;
    for (const Row& row :
         conn_.MustExecute("SELECT * FROM v$partitions").rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(line);
    }
    return out;
  };
  const std::vector<std::string> parts_before = partitions();
  const std::vector<std::string> iots_before = db_.catalog().IotNames();
  Arm("odci/create", "nth=2 status=Internal");
  EXPECT_EQ(DropsTracedByFailedDdl(
                "ALTER TABLE docs ADD PARTITION p3 VALUES LESS THAN (400)"),
            2u);
  Disarm("odci/create");
  EXPECT_EQ(partitions(), parts_before);
  EXPECT_EQ(db_.catalog().IotNames(), iots_before);
  EXPECT_EQ(Count("docs", "Contains(body, 'gamma')"), 2);
}

TEST_F(FaultToleranceTest, TransientStatsFailureIsRetried) {
  ASSERT_TRUE(text::InstallTextCartridge(&conn_).ok());
  conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(64))");
  conn_.MustExecute(
      "INSERT INTO docs VALUES (1, 'alpha beta'), (2, 'beta gamma')");
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  const std::pair<const char*, const char*> sites[] = {
      {"odci/stats_selectivity", "ODCIStatsSelectivity"},
      {"odci/stats_index_cost", "ODCIStatsIndexCost"}};
  const char* words[] = {"alpha", "gamma"};  // a fresh predicate per site
  for (int i = 0; i < 2; ++i) {
    const auto& [site, routine] = sites[i];
    Arm(site, "once status=IoError");
    TracerSnapshot before = Tracer::Global().Snapshot();
    QueryResult r = conn_.MustExecute(
        std::string("SELECT id FROM docs WHERE Contains(body, '") + words[i] +
        "')");
    EXPECT_EQ(r.rows.size(), 1u) << site;
    RoutineStats traced;
    for (const auto& [key, stats] :
         TracerDelta(Tracer::Global().Snapshot(), before)) {
      if (key.second == routine) {
        traced.calls += stats.calls;
        traced.errors += stats.errors;
      }
    }
    EXPECT_EQ(traced.calls, 2u) << site;
    EXPECT_EQ(traced.errors, 1u) << site;
    Disarm(site);
  }
}

// The text build's one sorted load has its own callback site.  A transient
// failure there is retried with ODCIIndexCreate after the engine dropped
// the partial posting table, so the retry starts afresh.
TEST_F(FaultToleranceTest, TransientBulkLoadFailureRetriesCreate) {
  ASSERT_TRUE(text::InstallTextCartridge(&conn_).ok());
  conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(64))");
  conn_.MustExecute(
      "INSERT INTO docs VALUES (1, 'alpha beta'), (2, 'beta gamma')");
  Arm("callback/iot_bulk_load", "once status=IoError");
  TracerSnapshot before = Tracer::Global().Snapshot();
  ASSERT_TRUE(conn_
                  .Execute("CREATE INDEX docs_text ON docs(body) "
                           "INDEXTYPE IS TextIndexType")
                  .ok());
  Disarm("callback/iot_bulk_load");
  RoutineStats create;
  for (const auto& [key, stats] :
       TracerDelta(Tracer::Global().Snapshot(), before)) {
    if (key.second == "ODCIIndexCreate") {
      create.calls += stats.calls;
      create.errors += stats.errors;
    }
  }
  EXPECT_EQ(create.calls, 2u);
  EXPECT_EQ(create.errors, 1u);
  EXPECT_EQ(VdollarStatus("docs_text").first, "VALID");
  EXPECT_EQ(Count("docs", "Contains(body, 'beta')"), 2);
}

TEST_F(FaultToleranceTest, FatalBulkLoadFailureLeavesNoOrphan) {
  ASSERT_TRUE(text::InstallTextCartridge(&conn_).ok());
  conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(64))");
  conn_.MustExecute("INSERT INTO docs VALUES (1, 'alpha beta')");
  Arm("callback/iot_bulk_load", "once status=Internal");
  EXPECT_FALSE(conn_
                   .Execute("CREATE INDEX docs_text ON docs(body) "
                            "INDEXTYPE IS TextIndexType")
                   .ok());
  Disarm("callback/iot_bulk_load");
  EXPECT_FALSE(db_.catalog().IndexExists("docs_text"));
  EXPECT_TRUE(db_.catalog().IotNames().empty());
}

// ---- multi-row text DML: one posting run, one fail-point hit ----

// A multi-row text DML writes its postings as one sorted merge run, which
// fires callback/iot_merge once, before it changes anything.  Armed once
// with a transient status, the guard retries the batch routine and the
// statement leaves the postings of an unfaulted run; with a fatal status
// the statement fails and the posting IOT is as it was.
TEST_F(FaultToleranceTest, FaultedPostingRunRetriesOrChangesNothing) {
  std::string rows;
  for (int id = 0; id < 64; ++id) {
    rows += std::string(id > 0 ? ", " : "") + "(" + std::to_string(id) +
            ", 'alpha beta w" + std::to_string(id % 9) + "')";
  }
  const std::string insert = "INSERT INTO docs VALUES " + rows;
  struct Case {
    const char* site;
    bool seeded;  // the 64 rows are inserted before the faulted statement
    std::string dml;
  };
  const Case cases[] = {
      {"callback/iot_merge", false, insert},
      {"callback/iot_merge", true, "DELETE FROM docs WHERE id < 40"},
  };
  for (const Case& c : cases) {
    std::vector<Row> unfaulted;
    for (const char* status : {"", "IoError", "Internal"}) {
      SCOPED_TRACE(std::string(c.site) + " status=" + status);
      Database db;
      Connection conn(&db);
      ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
      conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(64))");
      conn.MustExecute(
          "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
      if (c.seeded) conn.MustExecute(insert);
      const std::vector<Row> before = PostingRows(db, "docs_text");
      FailPointRegistry& failpoints = FailPointRegistry::Global();
      if (status[0] != '\0') {
        ASSERT_TRUE(
            failpoints.Set(c.site, std::string("once status=") + status)
                .ok());
      }
      const uint64_t hits = failpoints.Hits(c.site);
      Result<QueryResult> r = conn.Execute(c.dml);
      const uint64_t fired = failpoints.Hits(c.site) - hits;
      failpoints.Clear(c.site);
      if (status[0] == '\0') {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(fired, 1u);  // the whole statement is one run
        unfaulted = PostingRows(db, "docs_text");
        EXPECT_NE(unfaulted.size(), before.size());
      } else if (std::string(status) == "IoError") {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(fired, 2u);  // the faulted run and its retry
        ExpectSameRows(PostingRows(db, "docs_text"), unfaulted);
      } else {
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(fired, 1u);
        ExpectSameRows(PostingRows(db, "docs_text"), before);
      }
    }
  }
}

// ---- a failed maintenance attempt is retried from a savepoint ----

// Runs `setup` and then `dml` on a fresh engine, with fail-point `site`
// armed with `spec` when `faulted`.  The statement must succeed; returns
// the rows of IOT `iot` after it and sets `*retries` to the statement's
// odci_retries.
std::vector<Row> RowsAfterWriteFault(Status (*install)(Connection*),
                                     const std::vector<std::string>& setup,
                                     const std::string& dml,
                                     const std::string& iot,
                                     const char* site, const char* spec,
                                     bool faulted, uint64_t* retries) {
  Database db;
  Connection conn(&db);
  EXPECT_TRUE(install(&conn).ok());
  for (const std::string& sql : setup) conn.MustExecute(sql);
  if (faulted) {
    EXPECT_TRUE(FailPointRegistry::Global().Set(site, spec).ok());
  }
  const uint64_t before = GlobalMetrics().Snapshot().odci_retries;
  Result<QueryResult> r = conn.Execute(dml);
  FailPointRegistry::Global().Clear(site);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  *retries = GlobalMetrics().Snapshot().odci_retries - before;
  return IotRows(db, iot);
}

// An UPDATE's maintenance deletes the old entries before it writes the
// new ones.  A transient failure of the write (fail-point `site` armed
// with `spec`) rolls the call back to its savepoint, so the retry deletes
// the old entries again instead of failing with NotFound, and the index
// ends as after an unfaulted run.
void ExpectUpdateRetriesFromSavepoint(Status (*install)(Connection*),
                                      const std::vector<std::string>& setup,
                                      const std::string& dml,
                                      const std::string& iot,
                                      const char* site, const char* spec) {
  uint64_t retries = 0;
  const std::vector<Row> unfaulted = RowsAfterWriteFault(
      install, setup, dml, iot, site, spec, false, &retries);
  EXPECT_EQ(retries, 0u);
  const std::vector<Row> faulted = RowsAfterWriteFault(
      install, setup, dml, iot, site, spec, true, &retries);
  EXPECT_EQ(retries, 1u);
  EXPECT_FALSE(unfaulted.empty());
  ExpectSameRows(faulted, unfaulted);
}

// Text maintenance makes two merge runs per UPDATE, the delete run first:
// the second callback/iot_merge hit is the write run.
TEST_F(FaultToleranceTest, TransientFailureInTextUpdateRetriesFromSavepoint) {
  ExpectUpdateRetriesFromSavepoint(
      text::InstallTextCartridge,
      {"CREATE TABLE docs (id INTEGER, body VARCHAR(64))",
       "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType",
       "INSERT INTO docs VALUES (1, 'alpha beta'), (2, 'beta gamma'), "
       "(3, 'gamma alpha')"},
      "UPDATE docs SET body = 'omega zeta' WHERE id <= 2", "docs_text$ptab",
      "callback/iot_merge", "nth=2 status=IoError");
}

// Tile maintenance is one merge run per call, deletes and writes
// together: its one callback/iot_merge hit fails.
TEST_F(FaultToleranceTest, TransientFailureInTileUpdateRetriesFromSavepoint) {
  ExpectUpdateRetriesFromSavepoint(
      spatial::InstallSpatialCartridge,
      {"CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY)",
       "CREATE INDEX px ON parks(geometry) INDEXTYPE IS SpatialIndexType",
       "INSERT INTO parks VALUES (1, SDO_GEOMETRY(0,0,10,10)), "
       "(2, SDO_GEOMETRY(50,50,60,60)), (3, SDO_GEOMETRY(100,100,110,110))"},
      "UPDATE parks SET geometry = SDO_GEOMETRY(200,200,210,210) "
      "WHERE gid = 1",
      "px$ttab", "callback/iot_merge", "once status=IoError");
}

// A per-row-only cartridge gets one call per statement too: the OdciIndex
// default loops its Delete.  A transient failure at the third row undoes
// the first two deletes before the retry, which deletes all four again.
TEST_F(FaultToleranceTest, TransientFailureMidStatementRetriesFromSavepoint) {
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  conn_.MustExecute("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  TracerSnapshot traced = Tracer::Global().Snapshot();
  const uint64_t before = GlobalMetrics().Snapshot().odci_retries;
  Arm("flaky/delete", "nth=3 status=IoError");
  Result<QueryResult> r = conn_.Execute("DELETE FROM t WHERE v <= 4");
  Disarm("flaky/delete");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(GlobalMetrics().Snapshot().odci_retries - before, 1u);
  RoutineStats deletes;
  for (const auto& [key, stats] :
       TracerDelta(Tracer::Global().Snapshot(), traced)) {
    if (key.second == "ODCIIndexDelete") deletes = stats;
  }
  EXPECT_EQ(deletes.calls, 2u);  // the failed attempt and its retry
  EXPECT_EQ(deletes.errors, 1u);
  const std::vector<Row> left = IotRows(db_, "fidx$flaky");
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0][0].AsInteger(), 5);
}

// ---- a transient failure inside Create is retried, for every cartridge ----

// One in-tree cartridge's CREATE INDEX over a seeded table `src`, with the
// fail-point site its Create writes index data through.
struct CreateRetryCase {
  const char* cartridge;
  const char* write_site;
  Status (*install)(Connection*);
  Status (*fill)(Connection*);  // creates and fills `src`
  const char* create;
};

Status FillScalars(Connection* conn) {
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE TABLE src (id INTEGER, v INTEGER)").status());
  std::string sql = "INSERT INTO src VALUES (0, 0)";
  for (int i = 1; i < 40; ++i) {
    sql += ", (" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  return conn->Execute(sql).status();
}

Status FillCollections(Connection* conn) {
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE TABLE src (name VARCHAR(40), hobbies VARRAY OF "
                    "VARCHAR)")
          .status());
  return conn
      ->Execute("INSERT INTO src VALUES ('alice', VARRAY_OF('Skiing', "
                "'Chess')), ('bob', VARRAY_OF('Chess')), ('carol', "
                "VARRAY_OF('Skiing', 'Running'))")
      .status();
}

const CreateRetryCase kCreateRetryCases[] = {
    {"text", "callback/iot_bulk_load", text::InstallTextCartridge,
     [](Connection* conn) {
       return workload::BuildTextTable(conn, "src", 40, 8, 60, 0.8, 1);
     },
     "CREATE INDEX six ON src(body) INDEXTYPE IS TextIndexType"},
    {"spatial_tile", "callback/iot_bulk_load", spatial::InstallSpatialCartridge,
     [](Connection* conn) {
       return workload::BuildSpatialTable(conn, "src", 40, 800.0, 1);
     },
     "CREATE INDEX six ON src(geometry) INDEXTYPE IS SpatialIndexType"},
    {"spatial_rtree", "callback/iot_upsert", spatial::InstallSpatialCartridge,
     [](Connection* conn) {
       return workload::BuildSpatialTable(conn, "src", 40, 800.0, 1);
     },
     "CREATE INDEX six ON src(geometry) INDEXTYPE IS RtreeIndexType"},
    {"vir", "callback/iot_bulk_load", vir::InstallVirCartridge,
     [](Connection* conn) {
       return workload::BuildImageTable(conn, "src", 40, 3, 0.1, 1);
     },
     "CREATE INDEX six ON src(img) INDEXTYPE IS VirIndexType"},
    {"chem", "callback/iot_upsert", chem::InstallChemCartridge,
     [](Connection* conn) {
       return workload::BuildMoleculeTable(conn, "src", 20, 8, 1);
     },
     "CREATE INDEX six ON src(smiles) INDEXTYPE IS ChemIndexType"},
    {"domain_btree", "callback/iot_bulk_load", dbt::InstallDomainBtreeCartridge,
     FillScalars, "CREATE INDEX six ON src(v) INDEXTYPE IS DomainBtreeType"},
    {"varray", "callback/iot_bulk_load", varr::InstallVarrayCartridge,
     FillCollections,
     "CREATE INDEX six ON src(hobbies) INDEXTYPE IS VarrayIndexType"},
};

struct CreateRetryParam {
  const CreateRetryCase* c;
  const char* site;  // odci/create or the case's write_site
};

void PrintTo(const CreateRetryParam& p, std::ostream* os) {
  *os << p.c->cartridge << " at " << p.site;
}

std::vector<CreateRetryParam> CreateRetryParams() {
  std::vector<CreateRetryParam> out;
  for (const CreateRetryCase& c : kCreateRetryCases) {
    out.push_back({&c, "odci/create"});
    out.push_back({&c, c.write_site});
  }
  return out;
}

// What a build left in storage, comparable across two databases: every
// IOT's rows in key order and the number of live LOBs.  A `$meta` IOT maps
// a key to a LOB id, and a retried build allocates a fresh id, so the dump
// shows that LOB's bytes instead of its id.
std::map<std::string, std::vector<std::string>> StorageOf(Database& db) {
  Catalog& catalog = db.catalog();
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& name : catalog.IotNames()) {
    const bool meta = name.ends_with("$meta");
    std::vector<std::string>& rows = out[name];
    (*catalog.GetIot(name))
        ->ScanRange(nullptr, true, nullptr, true, [&](const Row& row) {
          if (!meta) {
            rows.push_back(KeyToString(row));
            return true;
          }
          Result<std::vector<uint8_t>> lob =
              catalog.lobs().ReadAll(LobId(row[1].AsInteger()));
          rows.push_back(row[0].ToString() + " -> " +
                         (lob.ok() ? std::string(lob->begin(), lob->end())
                                   : lob.status().ToString()));
          return true;
        });
  }
  out["live LOBs"] = {std::to_string(catalog.lobs().lob_count())};
  return out;
}

class CreateRetryTest : public ::testing::TestWithParam<CreateRetryParam> {
 protected:
  void SetUp() override { FailPointRegistry::Global().ClearAll(); }
  void TearDown() override { FailPointRegistry::Global().ClearAll(); }
};

// One IoError inside CREATE INDEX — at the engine's ODCIIndexCreate site,
// or in the callback the cartridge writes its index through — is absorbed
// by the retry guard: the failed attempt's partial storage is dropped, the
// second attempt builds the index, and the result equals an unfaulted
// build.
TEST_P(CreateRetryTest, TransientFailureRetriesCreate) {
  const CreateRetryCase& c = *GetParam().c;
  std::map<std::string, std::vector<std::string>> want;
  {
    Database db;
    Connection conn(&db);
    ASSERT_TRUE(c.install(&conn).ok());
    ASSERT_TRUE(c.fill(&conn).ok());
    conn.MustExecute(c.create);
    want = StorageOf(db);
  }
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(c.install(&conn).ok());
  ASSERT_TRUE(c.fill(&conn).ok());
  conn.MustExecute(std::string("SET FAILPOINT '") + GetParam().site +
                   "' = 'once status=IoError'");
  TracerSnapshot before = Tracer::Global().Snapshot();
  Result<QueryResult> created = conn.Execute(c.create);
  TracerSnapshot window = TracerDelta(Tracer::Global().Snapshot(), before);
  FailPointRegistry::Global().ClearAll();
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  RoutineStats create;
  for (const auto& [key, stats] : window) {
    if (key.second == "ODCIIndexCreate") {
      create.calls += stats.calls;
      create.errors += stats.errors;
    }
  }
  EXPECT_EQ(create.calls, 2u);
  EXPECT_EQ(create.errors, 1u);
  QueryResult status = conn.MustExecute(
      "SELECT status FROM v$domain_indexes WHERE index_name = 'six'");
  ASSERT_EQ(status.rows.size(), 1u);
  EXPECT_EQ(status.rows[0][0].AsVarchar(), "VALID");
  EXPECT_EQ(StorageOf(db), want);
}

INSTANTIATE_TEST_SUITE_P(
    Cartridges, CreateRetryTest, ::testing::ValuesIn(CreateRetryParams()),
    [](const ::testing::TestParamInfo<CreateRetryParam>& info) {
      std::string name =
          std::string(info.param.c->cartridge) + "_" + info.param.site;
      std::replace(name.begin(), name.end(), '/', '_');
      return name;
    });

TEST_F(FaultToleranceTest, BadFailpointSpecsAreRejected) {
  EXPECT_FALSE(conn_.Execute("SET FAILPOINT 'x' = 'bogus'").ok());
  EXPECT_FALSE(conn_.Execute("SET FAILPOINT 'x' = 'nth=abc'").ok());
  EXPECT_FALSE(conn_.Execute("SET FAILPOINT 'x' = 'prob=2'").ok());
  EXPECT_FALSE(conn_.Execute("SET FAILPOINT 'x' = 'status=NoSuchCode'").ok());
  EXPECT_FALSE(conn_.Execute("SET FAILPOINT 'x' = 'every=0'").ok());
  // A pure latency point and a disarm round-trip are fine.
  EXPECT_TRUE(conn_.Execute("SET FAILPOINT 'x' = 'once sleep=1'").ok());
  EXPECT_TRUE(conn_.Execute("SET FAILPOINT 'x' = OFF").ok());
}

TEST_F(FaultToleranceTest, EngineFailpointSiteInjectsWithoutCartridgeHelp) {
  // The engine-side odci/insert site fires before the cartridge is even
  // called: fault injection needs no cooperation from the indextype.
  conn_.MustExecute("CREATE INDEX fidx ON t(v) INDEXTYPE IS FlakyType");
  Arm("odci/insert", "status=Internal");
  EXPECT_FALSE(conn_.Execute("INSERT INTO t VALUES (9)").ok());
  Disarm("odci/insert");
  EXPECT_EQ(Count("t", "v = 9"), 0);
  conn_.MustExecute("INSERT INTO t VALUES (9)");
  EXPECT_EQ(Count("t", "FEq(v, 9)"), 1);
}

}  // namespace
}  // namespace exi
