// Integration tests: every cartridge installed into one database, multiple
// domain indexes coexisting, interleaved scans (§2.2.3 "multiple sets of
// invocations of operators can be interleaved"), and a full end-to-end
// scenario touching DDL, DML, transactions, the optimizer, and all five
// indexing schemes.

#include <gtest/gtest.h>

#include <set>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "core/scan_context.h"
#include "engine/connection.h"
#include "engine/workloads.h"
#include "temp_path.h"

namespace exi {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : conn_(&db_) {
    db_.catalog().set_external_root(external_root_.str());
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
    EXPECT_TRUE(vir::InstallVirCartridge(&conn_).ok());
    EXPECT_TRUE(chem::InstallChemCartridge(&conn_).ok());
    EXPECT_TRUE(dbt::InstallDomainBtreeCartridge(&conn_).ok());
    EXPECT_TRUE(varr::InstallVarrayCartridge(&conn_).ok());
  }

  // Declared first so the directory outlives the database using it.
  ScopedTempPath external_root_{"extidx_test_integration"};
  Database db_;
  Connection conn_;
};

TEST_F(IntegrationTest, AllCartridgesCoexist) {
  // One table mixing scalar, text, collection, and spatial columns.
  conn_.MustExecute(
      "CREATE TABLE facilities (id INTEGER, description VARCHAR(500), "
      "tags VARRAY OF VARCHAR, footprint OBJECT SDO_GEOMETRY)");
  conn_.MustExecute(
      "INSERT INTO facilities VALUES "
      "(1, 'chemical storage with oracle compliance records', "
      "VARRAY_OF('industrial', 'hazmat'), SDO_GEOMETRY(0,0,100,100)), "
      "(2, 'office park with unix server room', "
      "VARRAY_OF('office'), SDO_GEOMETRY(500,500,700,700)), "
      "(3, 'warehouse for oracle hardware', "
      "VARRAY_OF('industrial'), SDO_GEOMETRY(50,50,220,220))");

  conn_.MustExecute(
      "CREATE INDEX f_text ON facilities(description) "
      "INDEXTYPE IS TextIndexType");
  conn_.MustExecute(
      "CREATE INDEX f_tags ON facilities(tags) "
      "INDEXTYPE IS VarrayIndexType");
  conn_.MustExecute(
      "CREATE INDEX f_geo ON facilities(footprint) "
      "INDEXTYPE IS SpatialIndexType");
  conn_.MustExecute("CREATE INDEX f_id ON facilities(id)");
  conn_.MustExecute("ANALYZE facilities");

  // Three different domain indexes answering one conjunction; the
  // optimizer picks one and filters the rest.
  QueryResult r = conn_.MustExecute(
      "SELECT id FROM facilities WHERE Contains(description, 'oracle') "
      "AND VContains(tags, 'industrial') AND "
      "Sdo_Relate(footprint, SDO_GEOMETRY(60,60,80,80), "
      "'mask=ANYINTERACT')");
  ASSERT_EQ(r.rows.size(), 2u);
  std::set<int64_t> ids;
  for (const Row& row : r.rows) ids.insert(row[0].AsInteger());
  EXPECT_EQ(ids, (std::set<int64_t>{1, 3}));
}

TEST_F(IntegrationTest, MultipleDomainIndexesMaintainedTogether) {
  conn_.MustExecute(
      "CREATE TABLE facilities (id INTEGER, description VARCHAR(500), "
      "tags VARRAY OF VARCHAR)");
  conn_.MustExecute(
      "CREATE INDEX f_text ON facilities(description) "
      "INDEXTYPE IS TextIndexType");
  conn_.MustExecute(
      "CREATE INDEX f_tags ON facilities(tags) "
      "INDEXTYPE IS VarrayIndexType");
  conn_.MustExecute(
      "INSERT INTO facilities VALUES (1, 'solar plant', "
      "VARRAY_OF('green'))");
  conn_.MustExecute(
      "UPDATE facilities SET description = 'wind farm', "
      "tags = VARRAY_OF('greener') WHERE id = 1");
  EXPECT_EQ(conn_
                .MustExecute("SELECT COUNT(*) FROM facilities WHERE "
                             "Contains(description, 'solar')")
                .rows[0][0]
                .AsInteger(),
            0);
  EXPECT_EQ(conn_
                .MustExecute("SELECT COUNT(*) FROM facilities WHERE "
                             "Contains(description, 'wind')")
                .rows[0][0]
                .AsInteger(),
            1);
  EXPECT_EQ(conn_
                .MustExecute("SELECT COUNT(*) FROM facilities WHERE "
                             "VContains(tags, 'greener')")
                .rows[0][0]
                .AsInteger(),
            1);
  // Rollback undoes BOTH domain indexes.
  conn_.MustExecute("BEGIN");
  conn_.MustExecute("DELETE FROM facilities WHERE id = 1");
  conn_.MustExecute("ROLLBACK");
  EXPECT_EQ(conn_
                .MustExecute("SELECT COUNT(*) FROM facilities WHERE "
                             "Contains(description, 'wind') AND "
                             "VContains(tags, 'greener')")
                .rows[0][0]
                .AsInteger(),
            1);
}

TEST_F(IntegrationTest, InterleavedScansOnOneIndex) {
  // §2.2.3: "At any given time, a number of operators can be evaluated
  // using the same indextype routines."  Drive two scans of the same
  // domain index concurrently through the framework API.
  conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(100))");
  for (int i = 0; i < 100; ++i) {
    conn_.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) +
                      ", '" + (i % 2 ? "apple pie" : "banana split") +
                      "')");
  }
  conn_.MustExecute(
      "CREATE INDEX d_text ON docs(body) INDEXTYPE IS TextIndexType");

  OdciPredInfo apple =
      OdciPredInfo::BooleanTrue("Contains", {Value::Varchar("apple")});
  OdciPredInfo banana =
      OdciPredInfo::BooleanTrue("Contains", {Value::Varchar("banana")});
  auto scan_a = *db_.domains().StartScan("d_text", apple);
  auto scan_b = *db_.domains().StartScan("d_text", banana);

  // Alternate small fetches between the two scans.
  size_t rows_a = 0;
  size_t rows_b = 0;
  bool done_a = false;
  bool done_b = false;
  OdciFetchBatch batch;
  while (!done_a || !done_b) {
    if (!done_a) {
      ASSERT_TRUE(scan_a->NextBatch(7, &batch).ok());
      rows_a += batch.rids.size();
      done_a = batch.end_of_scan();
    }
    if (!done_b) {
      ASSERT_TRUE(scan_b->NextBatch(5, &batch).ok());
      rows_b += batch.rids.size();
      done_b = batch.end_of_scan();
    }
  }
  EXPECT_TRUE(scan_a->Close().ok());
  EXPECT_TRUE(scan_b->Close().ok());
  EXPECT_EQ(rows_a, 50u);
  EXPECT_EQ(rows_b, 50u);
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), 0u);
}

TEST_F(IntegrationTest, TwoIndexTypesForTheSameOperator) {
  // Tile index on one layer, R-tree on the other; the same Sdo_Relate
  // query text works against both (§3.2.2).
  ASSERT_TRUE(workload::BuildSpatialTable(&conn_, "a", 150, 400, 31).ok());
  ASSERT_TRUE(workload::BuildSpatialTable(&conn_, "b", 150, 400, 32).ok());
  conn_.MustExecute(
      "CREATE INDEX a_idx ON a(geometry) INDEXTYPE IS SpatialIndexType");
  conn_.MustExecute(
      "CREATE INDEX b_idx ON b(geometry) INDEXTYPE IS RtreeIndexType");
  std::string where =
      "Sdo_Relate(geometry, SDO_GEOMETRY(1000,1000,4000,4000), "
      "'mask=ANYINTERACT')";
  QueryResult ra = conn_.MustExecute("SELECT COUNT(*) FROM a WHERE " + where);
  QueryResult rb = conn_.MustExecute("SELECT COUNT(*) FROM b WHERE " + where);
  EXPECT_GT(ra.rows[0][0].AsInteger(), 0);
  EXPECT_GT(rb.rows[0][0].AsInteger(), 0);
}

TEST_F(IntegrationTest, DomainIndexSurvivesHeavyMixedWorkload) {
  conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
  conn_.MustExecute(
      "CREATE INDEX d_text ON docs(body) INDEXTYPE IS TextIndexType");
  Rng rng(17);
  std::set<int64_t> with_needle;
  int64_t next_id = 0;
  for (int round = 0; round < 400; ++round) {
    uint64_t op = rng.Uniform(10);
    if (op < 6 || with_needle.empty()) {
      bool needle = rng.Uniform(3) == 0;
      conn_.MustExecute("INSERT INTO docs VALUES (" +
                        std::to_string(next_id) + ", '" +
                        (needle ? "needle in haystack" : "plain hay") +
                        "')");
      if (needle) with_needle.insert(next_id);
      ++next_id;
    } else if (op < 8) {
      int64_t victim = *with_needle.begin();
      conn_.MustExecute("DELETE FROM docs WHERE id = " +
                        std::to_string(victim));
      with_needle.erase(victim);
    } else {
      int64_t victim = *with_needle.rbegin();
      conn_.MustExecute("UPDATE docs SET body = 'no longer matching' "
                        "WHERE id = " +
                        std::to_string(victim));
      with_needle.erase(victim);
    }
  }
  QueryResult r = conn_.MustExecute(
      "SELECT id FROM docs WHERE Contains(body, 'needle')");
  std::set<int64_t> found;
  for (const Row& row : r.rows) found.insert(row[0].AsInteger());
  EXPECT_EQ(found, with_needle);
}

}  // namespace
}  // namespace exi
