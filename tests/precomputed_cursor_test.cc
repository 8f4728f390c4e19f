// The shared Precompute-All result cursor (core/scan_context.h) under every
// cartridge that parks its answer with it: chem MolSim, VIR, varray, the
// spatial tile index, the R-tree and text in precompute/handle mode.  For
// each, the rows and ancillary values a scan returns are the same, in the
// same order, at every fetch batch size; they match the operator's
// functional evaluation as a set; and a LIMIT query releases its parked
// result set.  One case runs a tile join at parallelism 4, where join
// probes park and page cursors on pool threads (run it under TSan with
// -DEXTIDX_SANITIZE=thread).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "cartridge/vir/signature.h"
#include "cartridge/vir/vir_cartridge.h"
#include "core/domain_index.h"
#include "core/scan_context.h"
#include "engine/connection.h"
#include "engine/workloads.h"

namespace exi {
namespace {

// ---- the cursor on its own ----

TEST(PrecomputedCursorTest, PagesRowsAndAncillaryThenReleases) {
  size_t before = ScanWorkspaceRegistry::Global().active_count();
  std::vector<std::pair<RowId, int64_t>> hits;
  for (RowId rid = 1; rid <= 5; ++rid) hits.emplace_back(rid, rid * 10);
  OdciScanContext sctx = PrecomputedCursor::Park(
      std::move(hits), [](const std::pair<RowId, int64_t>& hit) {
        return std::pair{hit.first, Value::Integer(hit.second)};
      });
  ASSERT_TRUE(sctx.uses_handle());
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), before + 1);

  std::vector<size_t> sizes;
  std::vector<bool> lasts;
  std::vector<RowId> rids;
  ValueList ancillary;
  while (true) {
    OdciFetchBatch batch;
    ASSERT_TRUE(PrecomputedCursor::Fetch(sctx, 2, &batch).ok());
    // A Fetch past the marked batch still returns the empty one.
    if (batch.end_of_scan()) break;
    ASSERT_EQ(batch.ancillary.size(), batch.rids.size());
    sizes.push_back(batch.rids.size());
    lasts.push_back(batch.last);
    rids.insert(rids.end(), batch.rids.begin(), batch.rids.end());
    ancillary.insert(ancillary.end(), batch.ancillary.begin(),
                     batch.ancillary.end());
  }
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 2, 1}));
  EXPECT_EQ(lasts, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(rids, (std::vector<RowId>{1, 2, 3, 4, 5}));
  ASSERT_EQ(ancillary.size(), 5u);
  EXPECT_EQ(ancillary[4].AsInteger(), 50);

  ASSERT_TRUE(PrecomputedCursor::Close(sctx).ok());
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), before);
  OdciFetchBatch after_close;
  EXPECT_EQ(PrecomputedCursor::Fetch(sctx, 2, &after_close).code(),
            StatusCode::kNotFound);
  // A Return State context holds no handle: nothing to release.
  EXPECT_TRUE(PrecomputedCursor::Close(OdciScanContext{}).ok());
}

TEST(PrecomputedCursorTest, RowsWithoutAncillaryFetchNone) {
  OdciScanContext sctx = PrecomputedCursor::Park(std::vector<RowId>{7, 8, 9});
  OdciFetchBatch batch;
  ASSERT_TRUE(PrecomputedCursor::Fetch(sctx, 64, &batch).ok());
  EXPECT_EQ(batch.rids, (std::vector<RowId>{7, 8, 9}));
  EXPECT_TRUE(batch.ancillary.empty());
  EXPECT_TRUE(batch.last);
  ASSERT_TRUE(PrecomputedCursor::Close(sctx).ok());
}

TEST(PrecomputedCursorTest, RegistryHandsWorkspacesBackOnlyAsTheirType) {
  ScanWorkspaceRegistry registry;
  uint64_t h = registry.Allocate(std::make_shared<int>(42));
  EXPECT_TRUE(registry.Holds<int>(h));
  EXPECT_FALSE(registry.Holds<PrecomputedCursor>(h));
  EXPECT_FALSE(registry.Holds<int>(h + 1));
  EXPECT_EQ(registry.GetAs<double>(h).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Release(h).ok());
  EXPECT_FALSE(registry.Holds<int>(h));
}

// ---- the cursor under each precomputing cartridge ----

// One domain-index scan that parks a PrecomputedCursor.
struct CursorCase {
  const char* name;
  // Installs the cartridge and creates and fills `table`.
  Status (*setup)(Connection* conn);
  const char* table;
  const char* id_column;
  const char* index_name;
  const char* index_clause;  // "ON ... INDEXTYPE IS ... [PARAMETERS ...]"
  std::string (*where)();    // the operator predicate in SQL
  OdciPredInfo (*pred)();    // the same predicate as ODCIIndexStart gets
  bool ancillary;            // Fetch supplies one ancillary value per rid
};

// ctest names come from this text, so it must not change between builds.
void PrintTo(const CursorCase& c, std::ostream* os) { *os << c.name; }

// ---- chem ----

Status SetupChem(Connection* conn) {
  EXI_RETURN_IF_ERROR(chem::InstallChemCartridge(conn));
  return workload::BuildMoleculeTable(conn, "mols", 300, 8, 5);
}
std::string ChemWhere() { return "MolSim(smiles, 'CCO') >= 0.1"; }
OdciPredInfo ChemPred() {
  OdciPredInfo pred;
  pred.operator_name = "MolSim";
  pred.args = {Value::Varchar("CCO")};
  pred.lower_bound = Value::Double(0.1);
  return pred;
}

// ---- VIR ----

// A query signature rounded to three decimals, so its SQL literal and its
// Value are the same numbers.
vir::Signature VirQuery() {
  vir::Signature sig = workload::SignatureSource(4, 0.1, 3).Next();
  for (double& d : sig) d = std::round(d * 1000.0) / 1000.0;
  return sig;
}
Status SetupVir(Connection* conn) {
  EXI_RETURN_IF_ERROR(vir::InstallVirCartridge(conn));
  return workload::BuildImageTable(conn, "imgs", 300, 4, 0.1, 3);
}
std::string VirWhere() {
  std::string lit = "IMAGE_T(";
  char buf[16];
  vir::Signature sig = VirQuery();
  for (size_t i = 0; i < vir::kSignatureDims; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", sig[i]);
    lit += buf;
  }
  return "VIRSimilar(img, " + lit + "), '', 1.5)";
}
OdciPredInfo VirPred() {
  return OdciPredInfo::BooleanTrue(
      "VIRSimilar",
      {vir::ToValue(VirQuery()), Value::Varchar(""), Value::Double(1.5)});
}

// ---- varray ----

Status SetupVarray(Connection* conn) {
  EXI_RETURN_IF_ERROR(varr::InstallVarrayCartridge(conn));
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE TABLE crew (id INTEGER, hobbies VARRAY OF "
                    "VARCHAR)")
          .status());
  for (int i = 0; i < 300; ++i) {
    std::string sql = "INSERT INTO crew VALUES (" + std::to_string(i) +
                      ", VARRAY_OF('h" + std::to_string(i % 3) + "', 'h" +
                      std::to_string(i % 7) + "'))";
    EXI_RETURN_IF_ERROR(conn->Execute(sql).status());
  }
  return Status::OK();
}
std::string VarrayWhere() { return "VContains(hobbies, 'h2')"; }
OdciPredInfo VarrayPred() {
  return OdciPredInfo::BooleanTrue("VContains", {Value::Varchar("h2")});
}

// ---- spatial (tile and R-tree) ----

Status SetupSpatial(Connection* conn) {
  EXI_RETURN_IF_ERROR(spatial::InstallSpatialCartridge(conn));
  return workload::BuildSpatialTable(conn, "parks", 400, 500.0, 77);
}
std::string SpatialWhere() {
  return "Sdo_Relate(geometry, SDO_GEOMETRY(2000,2000,6000,6000), "
         "'mask=ANYINTERACT')";
}
OdciPredInfo SpatialPred() {
  return OdciPredInfo::BooleanTrue(
      "Sdo_Relate", {spatial::ToValue({2000.0, 2000.0, 6000.0, 6000.0}),
                     Value::Varchar("mask=ANYINTERACT")});
}

// ---- text ----

Status SetupText(Connection* conn) {
  EXI_RETURN_IF_ERROR(text::InstallTextCartridge(conn));
  return workload::BuildTextTable(conn, "docs", 500, 40, 300, 0.8, 4);
}
std::string TextWhere() { return "Contains(body, 'w5 OR w40')"; }
OdciPredInfo TextPred() {
  return OdciPredInfo::BooleanTrue("Contains", {Value::Varchar("w5 OR w40")});
}

// The rows and ancillary values of one drained scan, in Fetch order.
struct Drained {
  std::vector<RowId> rids;
  ValueList ancillary;
};

Result<Drained> DrainScan(Database* db, const CursorCase& c,
                          size_t max_rows) {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<DomainIndexManager::Scan> scan,
                       db->domains().StartScan(c.index_name, c.pred()));
  Drained out;
  while (true) {
    OdciFetchBatch batch;
    EXI_RETURN_IF_ERROR(scan->NextBatch(max_rows, &batch));
    if (batch.end_of_scan()) break;
    if (!batch.ancillary.empty() &&
        batch.ancillary.size() != batch.rids.size()) {
      return Status::Internal("a batch's ancillary length is not its rids'");
    }
    out.rids.insert(out.rids.end(), batch.rids.begin(), batch.rids.end());
    out.ancillary.insert(out.ancillary.end(), batch.ancillary.begin(),
                         batch.ancillary.end());
  }
  EXI_RETURN_IF_ERROR(scan->Close());
  return out;
}

std::set<int64_t> Ids(const QueryResult& r) {
  std::set<int64_t> ids;
  for (const Row& row : r.rows) ids.insert(row[0].AsInteger());
  return ids;
}

class CursorCaseTest : public ::testing::TestWithParam<CursorCase> {
 protected:
  CursorCaseTest() : conn_(&db_) {}

  std::string Select() const {
    const CursorCase& c = GetParam();
    return std::string("SELECT ") + c.id_column + " FROM " + c.table +
           " WHERE " + c.where();
  }

  Database db_;
  Connection conn_;
};

TEST_P(CursorCaseTest, SameRowsAtEveryBatchSizeAndEqualToFunctional) {
  const CursorCase& c = GetParam();
  ASSERT_TRUE(c.setup(&conn_).ok());
  // Functional evaluation: no index exists yet.
  std::set<int64_t> functional = Ids(conn_.MustExecute(Select()));
  ASSERT_FALSE(functional.empty());

  conn_.MustExecute(std::string("CREATE INDEX ") + c.index_name + " " +
                    c.index_clause);
  conn_.MustExecute(std::string("ANALYZE ") + c.table);
  EXPECT_NE(conn_.MustExecute("EXPLAIN " + Select())
                .message.find(std::string("DomainIndexScan(") + c.index_name),
            std::string::npos);

  Result<Drained> reference = DrainScan(&db_, c, 1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference->rids.size(), functional.size());
  if (c.ancillary) {
    EXPECT_EQ(reference->ancillary.size(), reference->rids.size());
  } else {
    EXPECT_TRUE(reference->ancillary.empty());
  }
  std::vector<int64_t> sql_reference;
  for (size_t batch : {1, 3, 64, 256, 1000}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    Result<Drained> got = DrainScan(&db_, c, batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->rids, reference->rids);
    ASSERT_EQ(got->ancillary.size(), reference->ancillary.size());
    for (size_t i = 0; i < got->ancillary.size(); ++i) {
      Result<int> cmp =
          Value::Compare(got->ancillary[i], reference->ancillary[i]);
      EXPECT_TRUE(cmp.ok() && *cmp == 0) << "ancillary value " << i;
    }

    // The same through SQL, with the executor fetching `batch` rows a call.
    db_.set_fetch_batch_size(batch);
    QueryResult indexed = conn_.MustExecute(Select());
    std::vector<int64_t> ids;
    for (const Row& row : indexed.rows) ids.push_back(row[0].AsInteger());
    if (sql_reference.empty()) sql_reference = ids;
    EXPECT_EQ(ids, sql_reference);
    EXPECT_EQ(std::set<int64_t>(ids.begin(), ids.end()), functional);
  }
}

TEST_P(CursorCaseTest, LimitQueryReleasesItsResultSet) {
  const CursorCase& c = GetParam();
  ASSERT_TRUE(c.setup(&conn_).ok());
  conn_.MustExecute(std::string("CREATE INDEX ") + c.index_name + " " +
                    c.index_clause);
  conn_.MustExecute(std::string("ANALYZE ") + c.table);
  size_t before = ScanWorkspaceRegistry::Global().active_count();
  EXPECT_EQ(conn_.MustExecute(Select() + " LIMIT 1").rows.size(), 1u);
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Cartridges, CursorCaseTest,
    ::testing::Values(
        CursorCase{"chem_molsim", SetupChem, "mols", "id", "mols_chem",
                   "ON mols(smiles) INDEXTYPE IS ChemIndexType", ChemWhere,
                   ChemPred, true},
        CursorCase{"vir", SetupVir, "imgs", "id", "imgs_vir",
                   "ON imgs(img) INDEXTYPE IS VirIndexType", VirWhere,
                   VirPred, true},
        CursorCase{"varray", SetupVarray, "crew", "id", "crew_varray",
                   "ON crew(hobbies) INDEXTYPE IS VarrayIndexType",
                   VarrayWhere, VarrayPred, false},
        CursorCase{"spatial_tile", SetupSpatial, "parks", "gid", "parks_tile",
                   "ON parks(geometry) INDEXTYPE IS SpatialIndexType",
                   SpatialWhere, SpatialPred, false},
        CursorCase{"rtree", SetupSpatial, "parks", "gid", "parks_rtree",
                   "ON parks(geometry) INDEXTYPE IS RtreeIndexType",
                   SpatialWhere, SpatialPred, false},
        CursorCase{"text_precompute_handle", SetupText, "docs", "id",
                   "docs_text",
                   "ON docs(body) INDEXTYPE IS TextIndexType PARAMETERS "
                   "(':Mode precompute :ContextMode handle')",
                   TextWhere, TextPred, true}));

// A tile join at parallelism 4 parks, pages and releases one cursor per
// probe on pool threads: the same rows in the same order as the serial
// join, and no result set left parked.
TEST(PrecomputedCursorJoinTest, ParallelTileJoinMatchesSerial) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
  ASSERT_TRUE(workload::BuildSpatialTable(&conn, "roads", 60, 500.0, 17).ok());
  ASSERT_TRUE(workload::BuildSpatialTable(&conn, "parks", 200, 300.0, 19).ok());
  conn.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS SpatialIndexType");
  conn.MustExecute("ANALYZE roads");
  conn.MustExecute("ANALYZE parks");
  const std::string q =
      "SELECT r.gid, p.gid FROM roads r, parks p "
      "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  size_t before = ScanWorkspaceRegistry::Global().active_count();
  QueryResult serial = conn.MustExecute(q);
  ASSERT_GT(serial.rows.size(), 0u);
  db.set_parallelism(4);
  EXPECT_NE(conn.MustExecute("EXPLAIN " + q).message.find("parallel=4"),
            std::string::npos);
  QueryResult parallel = conn.MustExecute(q);
  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(CompareKeys(serial.rows[i], parallel.rows[i]), 0)
        << "row " << i << " differs";
  }
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), before);
}

}  // namespace
}  // namespace exi
