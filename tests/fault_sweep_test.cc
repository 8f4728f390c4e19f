// Fault sweep: run a canonical domain-index workload once cleanly to let
// every reachable fail-point site self-register, then re-run the workload
// once per site with that site armed, asserting the engine degrades cleanly
// every time — statements may fail, but the catalog stays consistent (no
// orphan cartridge storage, no index stuck IN_PROGRESS) and the engine
// remains usable.  Runs in the default and TSan ctest stages, and as the CI
// fault-smoke stage with EXTIDX_BENCH_SMOKE=1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "common/failpoint.h"
#include "engine/connection.h"
#include "test_cartridges.h"

namespace exi {
namespace {

size_t BulkRows() {
  return std::getenv("EXTIDX_BENCH_SMOKE") != nullptr ? 8 : 32;
}

// The canonical workload: every statement the lifecycle machinery guards —
// DDL, single-row and multi-row DML, scans, stats, partition maintenance,
// REBUILD, and drops — over the test-only FlakyType, plus two real
// cartridges: multi-row text DML (sorted posting runs) and the spatial
// tile index (its one sorted IotBulkLoad, and a multi-row UPDATE).  The
// text statements come first, so each maintenance site and IOT write
// callback is first hit by a multi-row statement; the UPDATE's upsert run
// follows its delete run within one call.  Statements run through Execute
// with errors ignored; with a fail-point armed, any of them may
// legitimately fail.
std::vector<std::string> WorkloadSql() {
  std::string bulk = "INSERT INTO wt VALUES (10)";
  for (size_t i = 1; i < BulkRows(); ++i) {
    bulk += ", (" + std::to_string(10 + i) + ")";
  }
  return {
      "CREATE TABLE wd (id INTEGER, body VARCHAR(64))",
      "INSERT INTO wd VALUES (1, 'alpha beta'), (2, 'beta gamma'), "
      "(3, 'gamma alpha')",
      "CREATE INDEX wdidx ON wd(body) INDEXTYPE IS TextIndexType",
      "UPDATE wd SET body = 'omega zeta' WHERE id <= 2",
      "INSERT INTO wd VALUES (4, 'alpha omega'), (5, 'zeta')",
      "DELETE FROM wd WHERE id >= 3",
      "SELECT COUNT(*) FROM wd WHERE Contains(body, 'omega')",
      "DROP INDEX wdidx",
      "DROP TABLE wd",
      "CREATE TABLE wt (v INTEGER)",
      "CREATE INDEX widx ON wt(v) INDEXTYPE IS FlakyType",
      "INSERT INTO wt VALUES (1)",
      bulk,
      "UPDATE wt SET v = 2 WHERE v = 1",
      "DELETE FROM wt WHERE v = 11",
      "SELECT COUNT(*) FROM wt WHERE FEq(v, 2)",
      "EXPLAIN SELECT * FROM wt WHERE FEq(v, 12)",
      "BEGIN",
      "INSERT INTO wt VALUES (90)",
      "ROLLBACK",
      "ALTER INDEX widx REBUILD",
      "TRUNCATE TABLE wt",
      "INSERT INTO wt VALUES (7)",
      "CREATE TABLE wp (v INTEGER) PARTITION BY RANGE (v) "
      "(PARTITION p0 VALUES LESS THAN (100), "
      "PARTITION p1 VALUES LESS THAN (200))",
      "CREATE INDEX wpidx ON wp(v) INDEXTYPE IS FlakyType",
      "INSERT INTO wp VALUES (1), (150)",
      "SELECT COUNT(*) FROM wp WHERE FEq(v, 150)",
      "ALTER INDEX wpidx REBUILD PARTITION p1",
      "ALTER TABLE wp ADD PARTITION p2 VALUES LESS THAN (300)",
      "INSERT INTO wp VALUES (250)",
      "ALTER TABLE wp TRUNCATE PARTITION p0",
      "ALTER TABLE wp DROP PARTITION p2",
      "DROP INDEX wpidx",
      "DROP TABLE wp",
      "DROP INDEX widx",
      "DROP TABLE wt",
      "CREATE TABLE ws (gid INTEGER, geometry OBJECT SDO_GEOMETRY)",
      "INSERT INTO ws VALUES (1, SDO_GEOMETRY(0,0,500,500)), "
      "(2, SDO_GEOMETRY(400,400,900,900)), (3, NULL)",
      "CREATE INDEX wsidx ON ws(geometry) INDEXTYPE IS SpatialIndexType "
      "PARAMETERS (':TileLevel 4')",
      "UPDATE ws SET geometry = SDO_GEOMETRY(100,100,450,450) WHERE gid <= 2",
      "SELECT COUNT(*) FROM ws WHERE Sdo_Relate(geometry, "
      "SDO_GEOMETRY(450,450,460,460), 'mask=ANYINTERACT')",
      "ALTER INDEX wsidx REBUILD",
      "DROP INDEX wsidx",
      "DROP TABLE ws",
  };
}

// Runs the workload on a fresh engine.  Returns the number of failed
// statements; `*out` receives the Database for post-run consistency checks.
size_t RunWorkload(std::unique_ptr<Database>* out) {
  auto db = std::make_unique<Database>();
  Connection conn(db.get());
  testcart::RegisterFlakyCartridge(db->catalog());
  for (const char* sql : testcart::kFlakySetupSql) conn.MustExecute(sql);
  EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
  EXPECT_TRUE(text::InstallTextCartridge(&conn).ok());
  size_t failures = 0;
  for (const std::string& sql : WorkloadSql()) {
    if (!conn.Execute(sql).ok()) failures++;
  }
  *out = std::move(db);
  return failures;
}

// Cartridges name their storage `<index>$<suffix>` (`$flaky`, the tile
// table's `$ttab`), with LOCAL slices as `<index>#<partition>$<suffix>`.
// Every surviving IOT must belong to an index that still exists — anything
// else is orphaned storage.
void ExpectNoOrphanStorage(Database& db, const std::string& when) {
  for (const std::string& iot : db.catalog().IotNames()) {
    std::string name = iot;
    size_t dollar = name.rfind('$');
    ASSERT_NE(dollar, std::string::npos) << iot << " " << when;
    name = name.substr(0, dollar);
    size_t hash = name.find('#');
    if (hash != std::string::npos) name = name.substr(0, hash);
    EXPECT_TRUE(db.catalog().IndexExists(name))
        << "orphan storage " << iot << " " << when;
  }
  for (const std::string& it : db.catalog().IndexTableNames()) {
    ADD_FAILURE() << "unexpected index table " << it << " " << when;
  }
}

void ExpectNoIndexStuckInProgress(Database& db, const std::string& when) {
  for (const IndexInfo* idx : db.catalog().Indexes()) {
    for (const IndexSlice& slice : idx->slices) {
      EXPECT_NE(slice.status, IndexStatus::kInProgress)
          << slice.name << " " << when;
    }
  }
}

void ExpectStillUsable(Database& db, const std::string& when) {
  Connection conn(&db);
  EXPECT_TRUE(conn.Execute("CREATE TABLE probe (x INTEGER)").ok()) << when;
  EXPECT_TRUE(conn.Execute("INSERT INTO probe VALUES (1)").ok()) << when;
  Result<QueryResult> r = conn.Execute("SELECT COUNT(*) FROM probe");
  ASSERT_TRUE(r.ok()) << when;
  EXPECT_EQ(r->rows[0][0].AsInteger(), 1) << when;
  EXPECT_TRUE(conn.Execute("DROP TABLE probe").ok()) << when;
}

TEST(FaultSweepTest, EverySiteFiredOnceDegradesCleanly) {
  // Clean pass: discover every fail-point site the workload reaches.
  FailPointRegistry::Global().ClearAll();
  std::unique_ptr<Database> db;
  ASSERT_EQ(RunWorkload(&db), 0u) << "clean workload run must succeed";
  std::vector<std::string> sites = FailPointRegistry::Global().SiteNames();
  // Sanity: the workload reaches engine, callback, and cartridge sites.
  EXPECT_GE(sites.size(), 10u);
  bool saw_odci = false;
  bool saw_callback = false;
  for (const std::string& s : sites) {
    if (s.rfind("odci/", 0) == 0) saw_odci = true;
    if (s.rfind("callback/", 0) == 0) saw_callback = true;
  }
  EXPECT_TRUE(saw_odci);
  EXPECT_TRUE(saw_callback);
  EXPECT_NE(std::find(sites.begin(), sites.end(), "callback/iot_bulk_load"),
            sites.end());

  for (const std::string& site : sites) {
    SCOPED_TRACE(site);
    FailPointRegistry::Global().ClearAll();
    ASSERT_TRUE(FailPointRegistry::Global()
                    .Set(site, "once status=Internal")
                    .ok());
    std::unique_ptr<Database> injected;
    (void)RunWorkload(&injected);
    FailPointRegistry::Global().ClearAll();
    std::string when = "after injecting " + site;
    ExpectNoOrphanStorage(*injected, when);
    ExpectNoIndexStuckInProgress(*injected, when);
    ExpectStillUsable(*injected, when);
  }
}

// Transient injection: one IoError at every site must be absorbed by the
// retry guard on retryable paths or degrade exactly like a fatal error on
// the rest — never corrupt the catalog.  An IoError inside a Create (the
// engine's odci/create site, or the spatial build's bulk load) is retried
// after the failed attempt's storage is dropped, and one inside a
// maintenance call (its odci/ site, or a posting run's IOT write) is
// retried from the call's savepoint, so no statement fails.
TEST(FaultSweepTest, TransientSweepKeepsCatalogConsistent) {
  FailPointRegistry::Global().ClearAll();
  std::unique_ptr<Database> db;
  ASSERT_EQ(RunWorkload(&db), 0u);
  std::vector<std::string> sites = FailPointRegistry::Global().SiteNames();
  for (const std::string& site : sites) {
    SCOPED_TRACE(site);
    FailPointRegistry::Global().ClearAll();
    ASSERT_TRUE(FailPointRegistry::Global()
                    .Set(site, "once status=IoError")
                    .ok());
    std::unique_ptr<Database> injected;
    size_t failures = RunWorkload(&injected);
    FailPointRegistry::Global().ClearAll();
    for (const char* absorbed :
         {"odci/create", "callback/iot_bulk_load", "odci/insert",
          "odci/update", "odci/delete", "callback/iot_upsert",
          "callback/iot_delete", "callback/iot_merge"}) {
      if (site == absorbed) {
        EXPECT_EQ(failures, 0u);
      }
    }
    std::string when = "after transient " + site;
    ExpectNoOrphanStorage(*injected, when);
    ExpectNoIndexStuckInProgress(*injected, when);
    ExpectStillUsable(*injected, when);
  }
}

}  // namespace
}  // namespace exi
