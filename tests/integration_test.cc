// Integration tests: every cartridge installed into one database, multiple
// domain indexes coexisting, interleaved scans (§2.2.3 "multiple sets of
// invocations of operators can be interleaved"), and a full end-to-end
// scenario touching DDL, DML, transactions, the optimizer, and all five
// indexing schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

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

  // The first column of `sql`'s rows, sorted, duplicates kept.
  std::vector<int64_t> Ids(const std::string& sql) {
    std::vector<int64_t> ids;
    for (const Row& row : conn_.MustExecute(sql).rows) {
      ids.push_back(row[0].AsInteger());
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  // Whether `sql` is planned as a scan of domain index `index` (global or
  // LOCAL).
  bool ScansIndex(const std::string& sql, const std::string& index) {
    return conn_.MustExecute("EXPLAIN " + sql).message.find(
               "IndexScan(" + index) != std::string::npos;
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

// A domain index returns the rows where its boolean operator is TRUE, so
// only bounds that admit TRUE and exclude FALSE are planned on it:
// `op(...) = 0` and `op(...) = FALSE` stay filters and equal functional
// evaluation over an unindexed copy, while `op(...) = 1` scans the index.
TEST_F(IntegrationTest, BooleanOperatorFalseBoundsMatchFunctionalEvaluation) {
  auto image = [](const char* v) {
    std::string lit = "IMAGE_T(";
    for (int i = 0; i < 16; ++i) lit += std::string(i ? "," : "") + v;
    return lit + ")";
  };
  const std::string images =
      "(1, " + image("0.5") + "), (2, " + image("0.1") + ")";
  const std::string similar =
      "VIRSimilar(img, " + image("0.5") + ", 'globalcolor=1', 0.9)";
  const char* boxes =
      "(1, SDO_GEOMETRY(0,0,10,10)), (2, SDO_GEOMETRY(100,100,110,110))";
  const char* relate =
      "Sdo_Relate(g, SDO_GEOMETRY(5,5,6,6), 'mask=ANYINTERACT')";
  const struct {
    std::string columns;
    std::string rows;
    std::string column;
    std::string indextype;
    std::string pred;
  } cases[] = {
      {"id INTEGER, v DOUBLE", "(1, 10), (2, 20), (3, 30)", "v",
       "DomainBtreeType", "DEq(v, 20)"},
      {"id INTEGER, v DOUBLE", "(1, 10), (2, 20), (3, 30)", "v",
       "DomainBtreeType", "DBetween(v, 15, 35)"},
      {"id INTEGER, tags VARRAY OF VARCHAR",
       "(1, VARRAY_OF('a', 'b')), (2, VARRAY_OF('c'))", "tags",
       "VarrayIndexType", "VContains(tags, 'a')"},
      {"id INTEGER, smiles VARCHAR(64)",
       "(1, 'CCO'), (2, 'CCC'), (3, 'CCN'), (4, 'OCCO')", "smiles",
       "ChemIndexType", "MolContains(smiles, 'CO')"},
      {"id INTEGER, g OBJECT SDO_GEOMETRY", boxes, "g", "SpatialIndexType",
       relate},
      {"id INTEGER, g OBJECT SDO_GEOMETRY", boxes, "g", "RtreeIndexType",
       relate},
      {"id INTEGER, body VARCHAR(64)",
       "(1, 'alpha beta'), (2, 'alpha'), (3, 'gamma')", "body",
       "TextIndexType", "Contains(body, 'alpha')"},
      {"id INTEGER, img OBJECT IMAGE_T", images, "img", "VirIndexType",
       similar},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.indextype + ": " + c.pred);
    for (const char* table : {"x", "f"}) {
      conn_.MustExecute(std::string("CREATE TABLE ") + table + " (" +
                        c.columns + ")");
      conn_.MustExecute(std::string("INSERT INTO ") + table + " VALUES " +
                        c.rows);
    }
    conn_.MustExecute("CREATE INDEX xi ON x(" + c.column + ") INDEXTYPE IS " +
                      c.indextype);
    for (const std::string form : {" = 0", " = FALSE", " = 1"}) {
      const std::string where = " WHERE " + c.pred + form;
      EXPECT_EQ(Ids("SELECT id FROM x" + where),
                Ids("SELECT id FROM f" + where))
          << form;
      EXPECT_EQ(ScansIndex("SELECT id FROM x" + where, "xi"), form == " = 1")
          << form;
    }
    conn_.MustExecute("DROP TABLE x");
    conn_.MustExecute("DROP TABLE f");
  }
  // A non-boolean operator keeps its range form on the index.
  conn_.MustExecute("CREATE TABLE m (id INTEGER, smiles VARCHAR(64))");
  conn_.MustExecute("INSERT INTO m VALUES (1, 'CCO'), (2, 'CCC')");
  conn_.MustExecute("CREATE INDEX mi ON m(smiles) INDEXTYPE IS ChemIndexType");
  EXPECT_TRUE(
      ScansIndex("SELECT id FROM m WHERE MolSim(smiles, 'CCO') >= 0.5", "mi"));
}

// Text `NOT` ranges over the scanned slice's rows whose indexed value is
// not NULL, as functional Contains does: a LOCAL index returns no row of
// another partition and no duplicate, and no index returns a NULL body.
TEST_F(IntegrationTest, TextNotQueriesMatchFunctionalEvaluation) {
  conn_.MustExecute("CREATE TABLE f (id INTEGER, body VARCHAR(64))");
  const char* rows =
      " VALUES (1, 'alpha'), (2, 'beta'), (11, 'alpha'), (12, 'gamma'), "
      "(13, NULL)";
  conn_.MustExecute(std::string("INSERT INTO f") + rows);
  for (const char* layout :
       {"", " PARTITION BY RANGE (id) (PARTITION p0 VALUES LESS THAN (10), "
            "PARTITION p1 VALUES LESS THAN (MAXVALUE))"}) {
    SCOPED_TRACE(*layout ? "LOCAL" : "global");
    conn_.MustExecute(
        std::string("CREATE TABLE x (id INTEGER, body VARCHAR(64))") + layout);
    conn_.MustExecute(std::string("INSERT INTO x") + rows);
    conn_.MustExecute("CREATE INDEX xi ON x(body) INDEXTYPE IS TextIndexType");
    for (const char* query : {"NOT alpha", "beta OR NOT alpha"}) {
      const std::string where =
          std::string(" WHERE Contains(body, '") + query + "')";
      EXPECT_TRUE(ScansIndex("SELECT id FROM x" + where, "xi")) << query;
      EXPECT_EQ(Ids("SELECT id FROM x" + where),
                Ids("SELECT id FROM f" + where))
          << query;
    }
    conn_.MustExecute("DROP TABLE x");
  }
}

}  // namespace
}  // namespace exi
