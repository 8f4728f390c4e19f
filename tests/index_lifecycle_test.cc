// ALTER INDEX and DROP INDEX over every indextype (ROADMAP item 1): after
// each ALTER INDEX ... PARAMETERS, accepted or refused, an index scan
// answers what functional evaluation answers, also after DML that follows
// the ALTER; after DROP INDEX no IOT, index table, LOB or external file of
// the index remains.  Each indextype runs on a global index and on a
// LOCAL index over two RANGE partitions.  Every indexed query, also one
// cut short by LIMIT or by a failed Fetch, releases the scan workspaces
// it took.  Under DML and ROLLBACK the index answers what functional
// evaluation answers; for the indextypes whose index is one IOT of
// entries, every slice also equals what REBUILD writes, and each statement
// writes one merge run per slice.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "core/scan_context.h"
#include "engine/connection.h"
#include "index/key.h"
#include "temp_path.h"

namespace exi {
namespace {

// One indextype under test: the indexed column `c`, rows (id, value) for
// ids 1-8, a value no predicate matches for filler rows (so that the
// planner prefers the index), a row added after each ALTER, the CREATE
// INDEX tail, predicates over `c`, the first of which the index answers
// and at least one row matches, ALTER INDEX PARAMETERS strings, accepted
// or not, and whether the index is one IOT of entries (EntryIndexMethods).
struct Indextype {
  const char* name;
  const char* column_type;
  std::vector<const char*> values;
  const char* filler;
  const char* added_value;
  const char* create;
  std::vector<std::string> predicates;
  std::vector<const char*> alters;
  bool entry_table = false;
};

// An IMAGE_T whose 16 signature values start at `base`, `step` apart.
std::string Image(double base, double step) {
  std::string s = "IMAGE_T(";
  for (int i = 0; i < 16; ++i) {
    s += (i > 0 ? "," : "") + std::to_string(base + step * i);
  }
  return s + ")";
}

const char* const kGeometries[] = {
    "SDO_GEOMETRY(0,0,10,10)",       "SDO_GEOMETRY(20,20,30,30)",
    "SDO_GEOMETRY(40,40,60,60)",     "SDO_GEOMETRY(100,100,110,110)",
    "SDO_GEOMETRY(5,5,25,25)",       "SDO_GEOMETRY(200,0,210,10)",
    "SDO_GEOMETRY(0,200,10,210)",    "SDO_GEOMETRY(55,55,105,105)"};
const std::vector<std::string> kRelates = {
    "Sdo_Relate(c, SDO_GEOMETRY(0,0,50,50), 'mask=ANYINTERACT')",
    "Sdo_Relate(c, SDO_GEOMETRY(90,90,120,120), 'mask=ANYINTERACT')"};

const std::vector<Indextype>& Indextypes() {
  static const std::vector<Indextype> all = [] {
    const std::vector<const char*> molecules = {
        "'CCO'",   "'CC(=O)O'", "'C1CCCCC1'", "'CCCCCC'",
        "'ClCCl'", "'CC(=O)OCC'", "'BrBr'",   "'OCCO'"};
    const std::vector<std::string> chem_predicates = {
        "MolContains(c, 'C=O')", "MolContains(c, 'CC')",
        "MolSim(c, 'CCO') >= 0.5"};
    static const std::vector<std::string> images = [] {
      std::vector<std::string> v;
      for (int i = 0; i < 10; ++i) v.push_back(Image(0.1 * i, 0.01));
      return v;
    }();
    std::vector<const char*> image_values;
    for (int i = 0; i < 8; ++i) image_values.push_back(images[i].c_str());
    const std::string weights = "'globalcolor=1,localcolor=1,texture=1,"
                                "structure=1'";
    return std::vector<Indextype>{
        {"Text",
         "VARCHAR(64)",
         {"'oracle index'", "'spatial data'", "'oracle text'", "'the data'",
          "NULL", "'oracle data'", "'the end'", "'text index'"},
         "'filler'",
         "'oracle the'",
         "INDEXTYPE IS TextIndexType",
         {"Contains(c, 'oracle')", "Contains(c, 'the')",
          "Contains(c, 'oracle AND NOT data')", "Contains(c, 'NOT index')"},
         {":Ignore the", ":Mode incremental", ":ContextMode state",
          ":Mode bogus", ":Ignore oracle"}},
        {"SpatialTile",
         "OBJECT SDO_GEOMETRY",
         {std::begin(kGeometries), std::end(kGeometries)},
         "SDO_GEOMETRY(900,900,910,910)",
         "SDO_GEOMETRY(45,45,48,48)",
         "INDEXTYPE IS SpatialIndexType",
         kRelates,
         {":TileLevel 4", ":TileLevel 9", ":TileLevel 0"},
         true},
        {"Rtree",
         "OBJECT SDO_GEOMETRY",
         {std::begin(kGeometries), std::end(kGeometries)},
         "SDO_GEOMETRY(900,900,910,910)",
         "SDO_GEOMETRY(45,45,48,48)",
         "INDEXTYPE IS RtreeIndexType",
         kRelates,
         {":TileLevel 4"}},
        {"ChemLob",
         "VARCHAR(64)",
         molecules,
         "'N'",
         "'O=CC'",
         "INDEXTYPE IS ChemIndexType",
         chem_predicates,
         {":Storage lob", ":Storage file"}},
        {"ChemFile",
         "VARCHAR(64)",
         molecules,
         "'N'",
         "'O=CC'",
         "INDEXTYPE IS ChemIndexType PARAMETERS (':Storage file')",
         chem_predicates,
         {":Storage file", ":Storage lob"}},
        {"Vir",
         "OBJECT IMAGE_T",
         image_values,
         images[9].c_str(),
         images[8].c_str(),
         "INDEXTYPE IS VirIndexType",
         {"VIRSimilar(c, " + Image(0.3, 0.01) + ", " + weights + ", 0.5)",
          "VIRSimilar(c, " + Image(0.75, 0.01) + ", " + weights + ", 1.5)"},
         {":Comment resized"},
         true},
        {"Varray",
         "VARRAY OF VARCHAR",
         {"VARRAY_OF('Skiing', 'Chess')", "VARRAY_OF('Chess')",
          "VARRAY_OF('Skiing', 'Running')", "VARRAY_OF('Golf')", "NULL",
          "VARRAY_OF('Chess', 'Golf')", "VARRAY_OF('Running')",
          "VARRAY_OF('Skiing')"},
         "VARRAY_OF('Filler')",
         "VARRAY_OF('Chess', 'Skiing')",
         "INDEXTYPE IS VarrayIndexType",
         {"VContains(c, 'Skiing')", "VContains(c, 'Chess')"},
         {":Comment resized"},
         true},
        {"DomainBtree",
         "INTEGER",
         {"3", "7", "3", "NULL", "12", "5", "7", "1"},
         "100",
         "4",
         "INDEXTYPE IS DomainBtreeType",
         {"DEq(c, 3)", "DEq(c, 7)", "DBetween(c, 2, 6)"},
         {":Comment resized"},
         true},
    };
  }();
  return all;
}

// Regular files under `root`, recursively; none if it does not exist.
size_t FilesUnder(const std::string& root) {
  std::error_code ec;
  if (!std::filesystem::exists(root, ec)) return 0;
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root, ec)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

// The storage objects the catalog holds for cartridges.
struct Storage {
  std::vector<std::string> iots;
  std::vector<std::string> index_tables;
  size_t lobs;
  size_t files;
  bool operator==(const Storage&) const = default;
};

class IndexLifecycleTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {
 protected:
  IndexLifecycleTest() : conn_(&db_), root_("extidx_lifecycle") {
    db_.catalog().set_external_root(root_.str());
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
    EXPECT_TRUE(chem::InstallChemCartridge(&conn_).ok());
    EXPECT_TRUE(vir::InstallVirCartridge(&conn_).ok());
    EXPECT_TRUE(varr::InstallVarrayCartridge(&conn_).ok());
    EXPECT_TRUE(dbt::InstallDomainBtreeCartridge(&conn_).ok());
  }

  // Tables x, LOCAL over two RANGE partitions when `local`, and its
  // unindexed copy f, each holding rows 1-40: type.values, then filler.
  void CreateTables(const Indextype& type, bool local) {
    for (const char* table : {"x", "f"}) {
      conn_.MustExecute(
          std::string("CREATE TABLE ") + table + " (id INTEGER, c " +
          type.column_type + ")" +
          (local && table[0] == 'x'
               ? " PARTITION BY RANGE (id) (PARTITION a VALUES LESS THAN "
                 "(5), PARTITION b VALUES LESS THAN (MAXVALUE))"
               : ""));
      std::string rows;
      for (size_t i = 0; i < 40; ++i) {
        rows += (i > 0 ? ", (" : "(") + std::to_string(i + 1) + ", " +
                (i < type.values.size() ? type.values[i] : type.filler) +
                ")";
      }
      conn_.MustExecute(std::string("INSERT INTO ") + table + " VALUES " +
                        rows);
    }
  }

  Storage StorageNow() {
    return {db_.catalog().IotNames(), db_.catalog().IndexTableNames(),
            db_.catalog().lobs().lob_count(), FilesUnder(root_.str())};
  }

  // The ids `where` selects from `table`; the query leaves as many scan
  // workspaces open as it found.
  std::vector<int64_t> Ids(const std::string& table,
                           const std::string& where) {
    const size_t workspaces = ScanWorkspaceRegistry::Global().active_count();
    std::vector<int64_t> ids;
    for (const Row& row :
         conn_.MustExecute("SELECT id FROM " + table + " WHERE " + where)
             .rows) {
      ids.push_back(row[0].AsInteger());
    }
    EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), workspaces)
        << table << ": " << where;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  // Every predicate answers on `x` what it answers functionally on the
  // unindexed copy `f`; the first one goes through index xi.
  void ExpectFunctionalAnswers(const Indextype& type) {
    const std::string plan =
        conn_.MustExecute("EXPLAIN SELECT id FROM x WHERE " +
                          type.predicates[0])
            .message;
    EXPECT_NE(plan.find("IndexScan(xi", plan.find("plan:")),
              std::string::npos)
        << plan;
    for (const std::string& where : type.predicates) {
      SCOPED_TRACE(where);
      EXPECT_EQ(Ids("x", where), Ids("f", where));
    }
  }

  Database db_;
  Connection conn_;
  ScopedTempPath root_;
};

TEST_P(IndexLifecycleTest, AlterKeepsFunctionalAnswersAndDropLeavesNothing) {
  const auto [which, local] = GetParam();
  const Indextype& type = Indextypes()[which];
  CreateTables(type, local);
  const Storage before = StorageNow();
  conn_.MustExecute(std::string("CREATE INDEX xi ON x(c) ") + type.create);
  conn_.MustExecute("ANALYZE x");
  EXPECT_NE(StorageNow(), before) << "the index stores nothing to check";
  ExpectFunctionalAnswers(type);

  int64_t next_id = 100;
  for (const char* parameters : type.alters) {
    SCOPED_TRACE(parameters);
    const bool accepted =
        conn_.Execute(std::string("ALTER INDEX xi PARAMETERS ('") +
                      parameters + "')")
            .ok();
    SCOPED_TRACE(accepted ? "accepted" : "refused");
    ExpectFunctionalAnswers(type);
    // Maintenance after the ALTER writes where the scans read.
    for (const char* table : {"x", "f"}) {
      conn_.MustExecute(std::string("INSERT INTO ") + table + " VALUES (" +
                        std::to_string(next_id) + ", " + type.added_value +
                        ")");
      conn_.MustExecute(std::string("DELETE FROM ") + table +
                        " WHERE id = " + std::to_string(next_id - 99));
    }
    ++next_id;
    ExpectFunctionalAnswers(type);
  }

  conn_.MustExecute("DROP INDEX xi");
  EXPECT_EQ(StorageNow(), before);
}

// A scan cut short releases its workspace: a LIMIT 1 query, fetching one
// row at a time, closes the slice it is reading once it has its row, and a
// query whose Fetch fails closes the slice after the failure.
TEST_P(IndexLifecycleTest, ScansCutShortReleaseTheirWorkspaces) {
  const auto [which, local] = GetParam();
  const Indextype& type = Indextypes()[which];
  CreateTables(type, local);
  conn_.MustExecute(std::string("CREATE INDEX xi ON x(c) ") + type.create);
  conn_.MustExecute("ANALYZE x");
  const std::string query = "SELECT id FROM x WHERE " + type.predicates[0];
  const ScanWorkspaceRegistry& registry = ScanWorkspaceRegistry::Global();
  const size_t before = registry.active_count();

  const std::string limited = query + " LIMIT 1";
  db_.set_fetch_batch_size(1);
  const std::string plan = conn_.MustExecute("EXPLAIN " + limited).message;
  EXPECT_NE(plan.find("IndexScan(xi", plan.find("plan:")), std::string::npos)
      << plan;
  EXPECT_EQ(conn_.MustExecute(limited).rows.size(), 1u);
  EXPECT_EQ(registry.active_count(), before);

  conn_.MustExecute("SET FAILPOINT 'odci/fetch' = 'once status=IoError'");
  Result<QueryResult> failed = conn_.Execute(query);
  conn_.MustExecute("SET FAILPOINT 'odci/fetch' = OFF");
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(registry.active_count(), before);
}

// DML on an index: the entry-table indextypes, and the LOB-backed R-tree
// and chem indexes, whose index is not a set of rows REBUILD reproduces.
class EntryIndexDmlTest : public IndexLifecycleTest {
 protected:
  // The rows of every IOT of index xi (one per slice), in key order.
  std::map<std::string, std::vector<std::string>> IndexRows() {
    std::map<std::string, std::vector<std::string>> out;
    for (const std::string& name : db_.catalog().IotNames()) {
      if (!name.starts_with("xi")) continue;
      std::vector<std::string>& rows = out[name];
      (*db_.catalog().GetIot(name))
          ->ScanRange(nullptr, true, nullptr, true, [&rows](const Row& row) {
            rows.push_back(KeyToString(row));
            return true;
          });
    }
    return out;
  }

  // Answers equal functional evaluation, and an entry-table index holds
  // exactly the rows a REBUILD writes.
  void ExpectConsistent(const Indextype& type) {
    ExpectFunctionalAnswers(type);
    if (!type.entry_table) return;
    const auto maintained = IndexRows();
    EXPECT_FALSE(maintained.empty());
    conn_.MustExecute("ALTER INDEX xi REBUILD");
    EXPECT_EQ(maintained, IndexRows());
  }

  // Runs `sql`, whose table is written %, on x and then on f.
  void OnBoth(const std::string& sql) {
    for (const char* table : {"x", "f"}) {
      std::string on = sql;
      on.replace(on.find('%'), 1, table);
      conn_.MustExecute(on);
    }
  }
};

// Multi-row INSERT, range UPDATE (one of which leaves c as it is), range
// DELETE, and all three rolled back: after each, the maintained index
// answers like functional evaluation and, if it is an entry table, equals
// its rebuild.  A 64-row INSERT inside BEGIN logs one undo entry per heap
// row and one for an entry-table index's single merge run.
TEST_P(EntryIndexDmlTest, DmlMatchesRebuildAndIsOneRunPerStatement) {
  const auto [which, local] = GetParam();
  const Indextype& type = Indextypes()[which];
  CreateTables(type, local);
  conn_.MustExecute(std::string("CREATE INDEX xi ON x(c) ") + type.create);
  conn_.MustExecute("ANALYZE x");
  std::string rows;
  for (size_t i = 0; i < 8; ++i) {
    rows += (i > 0 ? ", (" : "(") + std::to_string(201 + i) + ", " +
            type.values[7 - i] + ")";
  }
  const std::string insert = "INSERT INTO % VALUES " + rows;
  const std::string update = std::string("UPDATE % SET c = ") +
                             type.added_value + " WHERE id BETWEEN 3 AND 6";
  const std::string same = "UPDATE % SET c = c WHERE id BETWEEN 1 AND 20";
  const std::string remove = "DELETE FROM % WHERE id BETWEEN 6 AND 12";
  for (const std::string& sql : {insert, update, same, remove}) {
    SCOPED_TRACE(sql);
    OnBoth(sql);
    ExpectConsistent(type);
  }

  const auto committed = IndexRows();
  conn_.MustExecute("BEGIN");
  for (const std::string& sql : {insert, update, remove}) {
    conn_.MustExecute(std::string(sql).replace(sql.find('%'), 1, "x"));
  }
  conn_.MustExecute("ROLLBACK");
  EXPECT_EQ(IndexRows(), committed);
  ExpectConsistent(type);

  // All 64 rows land in one slice, LOCAL or not.
  rows.clear();
  for (size_t i = 0; i < 64; ++i) {
    rows += (i > 0 ? ", (" : "(") + std::to_string(300 + i) + ", " +
            type.values[i % type.values.size()] + ")";
  }
  conn_.MustExecute("BEGIN");
  const size_t depth = db_.txns().current()->undo_depth();
  conn_.MustExecute("INSERT INTO x VALUES " + rows);
  if (type.entry_table) {
    EXPECT_EQ(db_.txns().current()->undo_depth() - depth, 64u + 1u);
  }
  conn_.MustExecute("ROLLBACK");
  EXPECT_EQ(IndexRows(), committed);
  ExpectFunctionalAnswers(type);
}

// An ALTER the entries cannot take leaves the index as it was: at
// :TileLevel 9 the cover of a 6000 x 6000 geometry in partition b is
// 308^2 tiles, over the bound, so the ALTER fails; on a LOCAL index
// partition a, altered first, goes back to the level the index keeps.
class TileAlterTest : public EntryIndexDmlTest {};

TEST_P(TileAlterTest, RefusedAlterLeavesIndexAsItWas) {
  const auto [which, local] = GetParam();
  const Indextype& type = Indextypes()[which];
  CreateTables(type, local);
  OnBoth("UPDATE % SET c = SDO_GEOMETRY(0,0,6000,6000) WHERE id = 40");
  conn_.MustExecute(std::string("CREATE INDEX xi ON x(c) ") + type.create);
  conn_.MustExecute("ANALYZE x");
  const auto built = IndexRows();
  ExpectFunctionalAnswers(type);

  Result<QueryResult> alter =
      conn_.Execute("ALTER INDEX xi PARAMETERS (':TileLevel 9')");
  ASSERT_FALSE(alter.ok());
  EXPECT_EQ(alter.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(alter.status().message().find("at level 9"), std::string::npos)
      << alter.status().ToString();
  EXPECT_EQ(IndexRows(), built);
  EXPECT_TRUE(conn_.MustExecute("SELECT parameters FROM user_indexes WHERE "
                                "index_name = 'xi'")
                  .rows[0][0]
                  .is_null());
  ExpectConsistent(type);
}

size_t IndextypeNamed(const char* name) {
  for (size_t i = 0; i < Indextypes().size(); ++i) {
    if (std::string(Indextypes()[i].name) == name) return i;
  }
  return Indextypes().size();
}

INSTANTIATE_TEST_SUITE_P(
    EntryIndextypes, EntryIndexDmlTest,
    ::testing::Combine(::testing::Values(IndextypeNamed("SpatialTile"),
                                         IndextypeNamed("Vir"),
                                         IndextypeNamed("Varray"),
                                         IndextypeNamed("DomainBtree")),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return std::string(Indextypes()[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) ? "_Local" : "_Global");
    });

INSTANTIATE_TEST_SUITE_P(
    LobIndextypes, EntryIndexDmlTest,
    ::testing::Combine(::testing::Values(IndextypeNamed("Rtree"),
                                         IndextypeNamed("ChemLob")),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return std::string(Indextypes()[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) ? "_Local" : "_Global");
    });

INSTANTIATE_TEST_SUITE_P(
    SpatialTile, TileAlterTest,
    ::testing::Combine(::testing::Values(IndextypeNamed("SpatialTile")),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return std::string(std::get<1>(info.param) ? "Local" : "Global");
    });

INSTANTIATE_TEST_SUITE_P(
    Indextypes, IndexLifecycleTest,
    ::testing::Combine(::testing::Range<size_t>(0, Indextypes().size()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return std::string(Indextypes()[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) ? "_Local" : "_Global");
    });

}  // namespace
}  // namespace exi
