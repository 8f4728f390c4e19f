// Every form of an operator predicate returns through a domain index the
// rows its functional evaluation returns (DESIGN.md §4).  One planner
// matcher serves access paths and join probes: a BOOLEAN operator is
// answered for the forms that select its TRUE rows, a non-BOOLEAN operator
// only for bounds of its return-type family, and every other form (a bare
// MolSim call, `MolSim(...) = 'x'`, `Contains(...) = 0`) stays a filter.
// Each case runs as a single-table scan and as a two-table join, on a
// global and on a HASH-partitioned LOCAL index, at parallelism 1 and 4.
//
// The parallelism-4 joins probe text and spatial indexes on pool threads;
// build with -DEXTIDX_SANITIZE=thread to run them under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"

namespace exi {
namespace {

// One predicate form: `suffix` follows the operator call; `indexed` says
// whether the index answers it.
struct Form {
  const char* suffix;
  bool indexed;
};

// One cartridge's tables and operator call.  The inner table `x` holds the
// indexed column; the outer table `o` drives the join.  `call` names the
// indexed column as `i.<col>` and the join argument as `o.<col>`; the
// single-table scan replaces the latter with `scan_arg`.
struct Cartridge {
  const char* name;
  const char* inner_columns;
  const char* inner_rows;
  const char* outer_columns;
  const char* outer_rows;
  const char* create_index;  // ON x(...) INDEXTYPE IS ...
  const char* call;          // over aliases i (inner) and o (outer)
  const char* join_arg;      // the outer column inside `call`
  const char* scan_arg;      // the constant replacing it in a scan
  bool parallel_scan;        // the cartridge's probes may run on the pool
  std::vector<Form> forms;
};

const std::vector<Form> kBooleanForms = {
    {"", true}, {" = TRUE", true}, {" = 1", true}, {" = 0", false}};

const Cartridge kCartridges[] = {
    // Molecule 7 shares no fingerprint bit with either query, so its
    // similarity is 0 and the bare call rejects it.
    {"chem",
     "id INTEGER, smiles VARCHAR(64)",
     "(1, 'CCO'), (2, 'CC(=O)O'), (3, 'C1CCCCC1'), (4, 'CCCCCC'), "
     "(5, 'ClCCl'), (6, 'CC(=O)OCC'), (7, 'BrBr'), (8, 'OCCO'), "
     "(9, 'CCN'), (10, 'CCCO')",
     "id INTEGER, s VARCHAR(64)",
     "(1, 'CCO'), (2, 'CCCCCC')",
     "ON x(smiles) INDEXTYPE IS ChemIndexType",
     "MolSim(i.smiles, o.s)",
     "o.s",
     "'CCO'",
     false,
     {{"", false},
      {" = 'x'", false},
      {" > 0", true},
      {" >= 0.5", true},
      {" BETWEEN 0.2 AND 0.9", true}}},
    {"text",
     "id INTEGER, body VARCHAR(64)",
     "(1, 'oracle index'), (2, 'spatial data'), (3, 'oracle text'), "
     "(4, 'image data'), (5, NULL), (6, 'oracle data'), (7, 'chemistry'), "
     "(8, 'text index')",
     "id INTEGER, w VARCHAR(16)",
     "(1, 'oracle'), (2, 'data'), (3, 'missing')",
     "ON x(body) INDEXTYPE IS TextIndexType",
     "Contains(i.body, o.w)",
     "o.w",
     "'oracle'",
     true,
     kBooleanForms},
    {"spatial",
     "id INTEGER, geometry OBJECT SDO_GEOMETRY",
     "(1, SDO_GEOMETRY(0,0,10,10)), (2, SDO_GEOMETRY(20,20,30,30)), "
     "(3, SDO_GEOMETRY(40,40,60,60)), (4, SDO_GEOMETRY(100,100,110,110)), "
     "(5, SDO_GEOMETRY(5,5,25,25)), (6, SDO_GEOMETRY(200,0,210,10)), "
     "(7, SDO_GEOMETRY(0,200,10,210)), (8, SDO_GEOMETRY(55,55,105,105))",
     "id INTEGER, geometry OBJECT SDO_GEOMETRY",
     "(1, SDO_GEOMETRY(0,0,50,50)), (2, SDO_GEOMETRY(90,90,120,120)), "
     "(3, SDO_GEOMETRY(500,500,510,510))",
     "ON x(geometry) INDEXTYPE IS SpatialIndexType",
     "Sdo_Relate(i.geometry, o.geometry, 'mask=ANYINTERACT')",
     "o.geometry",
     "SDO_GEOMETRY(0,0,50,50)",
     true,
     kBooleanForms},
};

struct Config {
  bool local;  // HASH-partitioned inner table with a LOCAL index
  size_t parallelism;
};

// Gives each ctest name a stable suffix; gtest would otherwise print the
// struct's bytes, padding included.
void PrintTo(const Config& c, std::ostream* os) {
  *os << (c.local ? "LOCAL HASH" : "global") << " index, parallelism "
      << c.parallelism;
}

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t p = s.find(from); p != std::string::npos;
       p = s.find(from, p + to.size())) {
    s.replace(p, from.size(), to);
  }
  return s;
}

class OperatorFormsTest : public ::testing::TestWithParam<Config> {
 protected:
  OperatorFormsTest() : conn_(&db_) {
    EXPECT_TRUE(chem::InstallChemCartridge(&conn_).ok());
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
  }

  // Every result row rendered, sorted, duplicates kept.
  std::vector<std::string> Rows(const std::string& sql) {
    std::vector<std::string> rows;
    for (const Row& row : conn_.MustExecute(sql).rows) {
      std::string text;
      for (const Value& v : row) text += v.ToString() + "|";
      rows.push_back(std::move(text));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Database db_;
  Connection conn_;
};

TEST_P(OperatorFormsTest, IndexAnswersEqualFunctionalEvaluation) {
  const Config config = GetParam();
  db_.set_parallelism(config.parallelism);
  for (const Cartridge& c : kCartridges) {
    SCOPED_TRACE(c.name);
    conn_.MustExecute(std::string("CREATE TABLE x (") + c.inner_columns +
                      ")" +
                      (config.local ? " PARTITION BY HASH (id) PARTITIONS 4"
                                    : ""));
    conn_.MustExecute(std::string("CREATE TABLE o (") + c.outer_columns +
                      ")");
    conn_.MustExecute(std::string("INSERT INTO x VALUES ") + c.inner_rows);
    conn_.MustExecute(std::string("INSERT INTO o VALUES ") + c.outer_rows);

    // Each form as a scan of x and as a join of o with x, answered
    // functionally before the index exists.
    const std::string scan_call =
        ReplaceAll(ReplaceAll(c.call, c.join_arg, c.scan_arg), "i.", "");
    std::vector<std::pair<std::string, std::string>> queries;  // (scan, join)
    for (const Form& f : c.forms) {
      queries.emplace_back(
          "SELECT id FROM x WHERE " + scan_call + f.suffix,
          std::string("SELECT o.id, i.id FROM o o, x i WHERE ") + c.call +
              f.suffix);
    }
    std::map<std::string, std::vector<std::string>> functional;
    for (const auto& [scan, join] : queries) {
      functional[scan] = Rows(scan);
      functional[join] = Rows(join);
    }
    // The bare form keeps some rows of x and rejects others, so an index
    // that returned every row would be caught.
    const size_t bare_rows = functional[queries[0].first].size();
    EXPECT_GT(bare_rows, 0u);
    EXPECT_LT(bare_rows, Rows("SELECT id FROM x").size());

    conn_.MustExecute(std::string("CREATE INDEX xi ") + c.create_index);
    conn_.MustExecute("ANALYZE x");
    for (size_t k = 0; k < c.forms.size(); ++k) {
      const auto& [scan, join] = queries[k];
      SCOPED_TRACE(scan);
      EXPECT_EQ(Rows(scan), functional[scan]);
      EXPECT_EQ(Rows(join), functional[join]) << join;
      const std::string scan_plan =
          conn_.MustExecute("EXPLAIN " + scan).message;
      const std::string join_plan =
          conn_.MustExecute("EXPLAIN " + join).message;
      EXPECT_EQ(scan_plan.find("IndexScan(xi") != std::string::npos,
                c.forms[k].indexed)
          << scan_plan;
      EXPECT_EQ(join_plan.find("DomainIndexJoin(inner=x via xi") !=
                    std::string::npos,
                c.forms[k].indexed)
          << join_plan;
      // Above parallelism 1 a capable cartridge's probes run on the pool.
      EXPECT_EQ(join_plan.find("parallel=4") != std::string::npos,
                c.forms[k].indexed && c.parallel_scan &&
                    config.parallelism == 4)
          << join_plan;
    }
    conn_.MustExecute("DROP TABLE x");
    conn_.MustExecute("DROP TABLE o");
  }
  db_.set_parallelism(1);
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, OperatorFormsTest,
    ::testing::Values(Config{false, 1}, Config{false, 4}, Config{true, 1},
                      Config{true, 4}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.local ? "LocalHash" : "Global") +
             "_Parallel" + std::to_string(info.param.parallelism);
    });

}  // namespace
}  // namespace exi
