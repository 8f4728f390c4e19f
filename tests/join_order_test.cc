// Two-table joins answer the same rows whichever FROM order they are
// written in, whatever local predicates ride along, and with or without the
// inner table's index (DESIGN.md §4).  Each join form — a text, spatial
// and chem domain-index probe, a B-tree equi-join probe and a join with no
// index — runs in both FROM orders, with and without a local predicate on
// each side, on a global and on a HASH-partitioned LOCAL inner index, at
// parallelism 1 and 4.
//
// The oracle is the join with no local predicate and no index, filtered
// here in C++: the local predicates order-compare columns of other types
// than their neighbours', so a filter that read a table-width row at the
// wrong slot raises TypeMismatch or drops rows instead of passing.  A
// domain-index probe is made only for the outer rows that pass their own
// predicates, one ODCIIndexStart per inner slice each, and an operator
// whose arguments are all constants is one index scan, not a probe.
//
// The parallelism-4 joins probe text and spatial indexes on pool threads;
// build with -DEXTIDX_SANITIZE=thread to run them under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "common/tracer.h"
#include "engine/connection.h"

namespace exi {
namespace {

// The outer table q(k INTEGER, <arg>) has these keys; the local predicate
// `q.k < 4` keeps the first three.
constexpr int64_t kOuterRows = 5;
constexpr int64_t kOuterPass = 3;

// The inner table is x(tag VARCHAR, id INTEGER, <col>), partitioned on id
// for a LOCAL index; `x.tag > 'a'` is its local predicate.
struct Join {
  const char* name;
  const char* inner_column;  // x's third column
  const char* inner_values;  // its eight values, for ids 1..8
  const char* outer_column;  // q's second column
  const char* outer_values;  // its five values, for keys 1..5
  const char* create_index;  // "" for a join with no index
  const char* on;            // the join conjunct over x and q
  const char* plan;          // the join node EXPLAIN must show
  bool domain;               // probes count one Start per slice
};

const Join kJoins[] = {
    {"text", "body VARCHAR(64)",
     "'oracle index'|'spatial data'|'oracle text'|'image data'|NULL|"
     "'oracle data'|'chemistry'|'text index'",
     "term VARCHAR(16)", "'oracle'|'data'|'index'|'missing'|'text'",
     "ON x(body) INDEXTYPE IS TextIndexType", "Contains(x.body, q.term)",
     "DomainIndexJoin(inner=x via xi", true},
    {"spatial", "geometry OBJECT SDO_GEOMETRY",
     "SDO_GEOMETRY(0,0,10,10)|SDO_GEOMETRY(20,20,30,30)|"
     "SDO_GEOMETRY(40,40,60,60)|SDO_GEOMETRY(100,100,110,110)|"
     "SDO_GEOMETRY(5,5,25,25)|SDO_GEOMETRY(200,0,210,10)|"
     "SDO_GEOMETRY(0,200,10,210)|SDO_GEOMETRY(55,55,105,105)",
     "geometry OBJECT SDO_GEOMETRY",
     "SDO_GEOMETRY(0,0,50,50)|SDO_GEOMETRY(90,90,120,120)|"
     "SDO_GEOMETRY(500,500,510,510)|SDO_GEOMETRY(8,8,22,22)|"
     "SDO_GEOMETRY(50,50,58,58)",
     "ON x(geometry) INDEXTYPE IS SpatialIndexType",
     "Sdo_Relate(x.geometry, q.geometry, 'mask=ANYINTERACT')",
     "DomainIndexJoin(inner=x via xi", true},
    {"chem", "smiles VARCHAR(64)",
     "'CCO'|'CC(=O)O'|'C1CCCCC1'|'CCCCCC'|'ClCCl'|'CC(=O)OCC'|'BrBr'|'OCCO'",
     "s VARCHAR(64)", "'CCO'|'CCCCCC'|'CCN'|'BrBr'|'CCCO'",
     "ON x(smiles) INDEXTYPE IS ChemIndexType", "MolSim(x.smiles, q.s) >= 0.5",
     "DomainIndexJoin(inner=x via xi", true},
    {"btree", "n INTEGER", "10|20|30|10|20|30|40|50", "m INTEGER",
     "10|30|60|20|10", "ON x(n)", "x.n = q.m", "IndexJoin(inner=x via xi",
     false},
    {"no index", "n INTEGER", "10|20|30|10|20|30|40|50", "m INTEGER",
     "10|30|60|20|10", "", "x.n < q.m", "NestedLoopJoin", false},
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

std::vector<std::string> Split(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t bar = s.find('|'); bar != std::string::npos;
       bar = s.find('|', start)) {
    out.push_back(s.substr(start, bar - start));
    start = bar + 1;
  }
  out.push_back(s.substr(start));
  return out;
}

uint64_t TracedStarts() {
  uint64_t calls = 0;
  for (const auto& [key, stats] : Tracer::Global().Snapshot()) {
    if (key.second == "ODCIIndexStart") calls += stats.calls;
  }
  return calls;
}

// One joined row: (q.k, x.id, x.tag).
using Pair = std::tuple<int64_t, int64_t, std::string>;

class JoinOrderTest : public ::testing::TestWithParam<Config> {
 protected:
  JoinOrderTest() : conn_(&db_) {
    EXPECT_TRUE(chem::InstallChemCartridge(&conn_).ok());
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
    db_.set_parallelism(GetParam().parallelism);
  }

  // x(tag, id, <inner_column>) with ids 1..8 and tags a, b, c in turn.
  void CreateInner(const char* column, const char* values) {
    conn_.MustExecute(std::string("CREATE TABLE x (tag VARCHAR(8), ") +
                      "id INTEGER, " + column + ")" +
                      (GetParam().local ? " PARTITION BY HASH (id) "
                                          "PARTITIONS 4"
                                        : ""));
    const std::vector<std::string> v = Split(values);
    for (size_t i = 0; i < v.size(); ++i) {
      conn_.MustExecute("INSERT INTO x VALUES ('" +
                        std::string(1, char('a' + i % 3)) + "', " +
                        std::to_string(i + 1) + ", " + v[i] + ")");
    }
  }

  // q(k, <outer_column>) with keys 1..5.
  void CreateOuter(const char* name, const char* column, const char* values) {
    conn_.MustExecute(std::string("CREATE TABLE ") + name + " (k INTEGER, " +
                      column + ")");
    const std::vector<std::string> v = Split(values);
    for (size_t i = 0; i < v.size(); ++i) {
      conn_.MustExecute(std::string("INSERT INTO ") + name + " VALUES (" +
                        std::to_string(i + 1) + ", " + v[i] + ")");
    }
  }

  std::vector<Pair> Pairs(const std::string& sql) {
    std::vector<Pair> out;
    for (const Row& row : conn_.MustExecute(sql).rows) {
      out.emplace_back(row[0].AsInteger(), row[1].AsInteger(),
                       row[2].AsVarchar());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  size_t Slices() const { return GetParam().local ? 4 : 1; }

  Database db_;
  Connection conn_;
};

// The eight spellings of one join: two FROM orders times a local predicate
// on neither, the outer, the inner or both sides.
struct Variant {
  std::string sql;
  bool outer_pred;
  bool inner_pred;
};

std::vector<Variant> Variants(const std::string& on) {
  std::vector<Variant> out;
  for (const char* from : {"q, x", "x, q"}) {
    for (int preds = 0; preds < 4; ++preds) {
      Variant v{std::string("SELECT q.k, x.id, x.tag FROM ") + from +
                    " WHERE " + on,
                (preds & 1) != 0, (preds & 2) != 0};
      if (v.outer_pred) v.sql += " AND q.k < 4";
      if (v.inner_pred) v.sql += " AND x.tag > 'a'";
      out.push_back(std::move(v));
    }
  }
  return out;
}

TEST_P(JoinOrderTest, EveryOrderAndLocalPredicateMatchesTheOracle) {
  for (const Join& j : kJoins) {
    SCOPED_TRACE(j.name);
    CreateInner(j.inner_column, j.inner_values);
    CreateOuter("q", j.outer_column, j.outer_values);
    const std::vector<Pair> all =
        Pairs(std::string("SELECT q.k, x.id, x.tag FROM q, x WHERE ") + j.on);
    ASSERT_FALSE(all.empty());
    const std::vector<Variant> variants = Variants(j.on);
    std::vector<std::vector<Pair>> functional;
    for (const Variant& v : variants) {
      std::vector<Pair> want;
      for (const Pair& p : all) {
        if (v.outer_pred && std::get<0>(p) >= 4) continue;
        if (v.inner_pred && std::get<2>(p) <= "a") continue;
        want.push_back(p);
      }
      EXPECT_EQ(Pairs(v.sql), want) << v.sql;
      functional.push_back(std::move(want));
    }

    if (*j.create_index != '\0') {
      conn_.MustExecute(std::string("CREATE INDEX xi ") + j.create_index);
    }
    conn_.MustExecute("ANALYZE x");
    conn_.MustExecute("ANALYZE q");
    for (size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      SCOPED_TRACE(v.sql);
      const std::string plan = conn_.MustExecute("EXPLAIN " + v.sql).message;
      EXPECT_NE(plan.find(j.plan), std::string::npos) << plan;
      Tracer::Global().Reset();
      EXPECT_EQ(Pairs(v.sql), functional[i]);
      const uint64_t probes = v.outer_pred ? kOuterPass : kOuterRows;
      EXPECT_EQ(TracedStarts(), j.domain ? probes * Slices() : 0u);
    }
    conn_.MustExecute("DROP TABLE x");
    conn_.MustExecute("DROP TABLE q");
  }
}

// An operator whose arguments are all constants is local to its table: one
// index scan under a nested loop, not one identical probe per outer row.
TEST_P(JoinOrderTest, ConstantOperatorArgumentsScanOnce) {
  CreateInner("body VARCHAR(64)",
              "'oracle index'|'spatial data'|'oracle text'|'image data'|"
              "NULL|'oracle data'|'chemistry'|'text index'");
  CreateOuter("w", "v DOUBLE", "0.5|1.5|2.5|3.5|4.5");
  const std::string sql =
      "SELECT w.k, x.id, x.tag FROM w, x WHERE Contains(x.body, 'oracle')";
  const std::vector<Pair> want = Pairs(sql);
  ASSERT_EQ(want.size(), size_t(3 * kOuterRows));

  conn_.MustExecute(
      "CREATE INDEX xi ON x(body) INDEXTYPE IS TextIndexType");
  const std::string plan = conn_.MustExecute("EXPLAIN " + sql).message;
  const size_t join = plan.find("NestedLoopJoin");
  ASSERT_NE(join, std::string::npos) << plan;
  EXPECT_NE(plan.find(GetParam().local ? "PartitionedIndexScan(xi"
                                       : "DomainIndexScan(xi",
                      join),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("DomainIndexJoin"), std::string::npos) << plan;
  Tracer::Global().Reset();
  EXPECT_EQ(Pairs(sql), want);
  EXPECT_EQ(TracedStarts(), Slices());
}

// Past two tables the joins stay left-deep in FROM order, each step
// probing its inner table from every table before it.
TEST_P(JoinOrderTest, ThreeTablesProbeFromTheTablesBefore) {
  CreateInner("body VARCHAR(64)",
              "'oracle index'|'spatial data'|'oracle text'|'image data'|"
              "NULL|'oracle data'|'chemistry'|'text index'");
  CreateOuter("q", "term VARCHAR(16)",
              "'oracle'|'data'|'index'|'missing'|'text'");
  CreateOuter("w", "v DOUBLE", "0.5|1.5|2.5|3.5|4.5");
  const std::string sql =
      "SELECT q.k, x.id, x.tag FROM w, q, x WHERE Contains(x.body, q.term) "
      "AND w.k = q.k AND w.v > 1.0 AND x.tag > 'a'";
  const std::vector<Pair> want = Pairs(sql);
  ASSERT_FALSE(want.empty());

  conn_.MustExecute(
      "CREATE INDEX xi ON x(body) INDEXTYPE IS TextIndexType");
  const std::string plan = conn_.MustExecute("EXPLAIN " + sql).message;
  EXPECT_NE(plan.find("DomainIndexJoin(inner=x via xi"), std::string::npos)
      << plan;
  Tracer::Global().Reset();
  EXPECT_EQ(Pairs(sql), want);
  // w keeps four rows, each joining one q row.
  EXPECT_EQ(TracedStarts(), 4 * Slices());
}

// A NULL operator argument never reaches the cartridge (text's Start
// rejects one): that outer row gets the operator's functional answer, here
// no match, as it does with no index and in every FROM order, and a NULL
// constant argument makes the operator a filter, not an index scan.
TEST_P(JoinOrderTest, NullOperatorArgumentGetsTheFunctionalAnswer) {
  CreateInner("body VARCHAR(64)",
              "'oracle index'|'spatial data'|'oracle text'|'image data'|"
              "NULL|'oracle data'|'chemistry'|'text index'");
  CreateOuter("q", "term VARCHAR(16)",
              "'oracle'|NULL|'index'|'missing'|'text'");
  CreateOuter("r", "flag BOOLEAN", "TRUE|TRUE|FALSE|TRUE|TRUE");
  const std::vector<std::string> sqls = {
      "SELECT q.k, x.id, x.tag FROM q, x WHERE Contains(x.body, q.term)",
      "SELECT q.k, x.id, x.tag FROM x, q WHERE Contains(x.body, q.term)",
      "SELECT q.k, x.id, x.tag FROM q, x, r WHERE Contains(x.body, q.term) "
      "AND r.k = q.k AND r.flag = TRUE",
      "SELECT q.k, x.id, x.tag FROM q, x WHERE Contains(x.body, NULL)",
  };
  std::vector<std::vector<Pair>> want;
  for (const std::string& sql : sqls) want.push_back(Pairs(sql));
  ASSERT_FALSE(want[0].empty());
  EXPECT_EQ(want[0], want[1]);

  conn_.MustExecute(
      "CREATE INDEX xi ON x(body) INDEXTYPE IS TextIndexType");
  for (size_t i = 0; i < sqls.size(); ++i) {
    SCOPED_TRACE(sqls[i]);
    const bool constant = i == sqls.size() - 1;
    const std::string plan = conn_.MustExecute("EXPLAIN " + sqls[i]).message;
    EXPECT_EQ(plan.find("DomainIndexJoin(inner=x via xi") != std::string::npos,
              !constant)
        << plan;
    Tracer::Global().Reset();
    EXPECT_EQ(Pairs(sqls[i]), want[i]);
    // Four of the five q rows have a term; a NULL constant is evaluated
    // functionally, with no scan.
    EXPECT_EQ(TracedStarts(), constant ? 0 : 4 * Slices());
  }
}

// Score() reads a single-table scan's ancillary value, which a joined row
// does not carry: a conjunct calling it filters the joined rows, so both
// FROM orders answer alike, as they do without the index.
TEST_P(JoinOrderTest, ScoreInAJoinIgnoresFromOrder) {
  CreateInner("body VARCHAR(64)",
              "'oracle index'|'spatial data'|'oracle text'|'image data'|"
              "NULL|'oracle data'|'chemistry'|'text index'");
  CreateOuter("w", "v DOUBLE", "0.5|1.5|2.5|3.5|4.5");
  const std::string on = " WHERE Contains(x.body, 'oracle') AND Score() > 0";
  const std::string xw = "SELECT w.k, x.id, x.tag FROM x, w" + on;
  const std::string wx = "SELECT w.k, x.id, x.tag FROM w, x" + on;
  const std::vector<Pair> want = Pairs(xw);
  EXPECT_EQ(Pairs(wx), want);

  conn_.MustExecute(
      "CREATE INDEX xi ON x(body) INDEXTYPE IS TextIndexType");
  EXPECT_EQ(Pairs(xw), want);
  EXPECT_EQ(Pairs(wx), want);
}

// A B-tree probe is declined when the would-be inner table is read through
// its own index: `a.z = 5` narrows a to one row once, where probing a.x
// per b row would fetch every a row with a matching x.
TEST_P(JoinOrderTest, SelectiveInnerIndexDeclinesTheProbe) {
  conn_.MustExecute("CREATE TABLE a (x INTEGER, z INTEGER)");
  conn_.MustExecute("CREATE TABLE b (y INTEGER, tag VARCHAR(8))");
  for (int i = 0; i < 200; ++i) {
    conn_.MustExecute("INSERT INTO a VALUES (" + std::to_string(i % 4) +
                      ", " + std::to_string(i) + ")");
  }
  for (int i = 0; i < 8; ++i) {
    conn_.MustExecute("INSERT INTO b VALUES (" + std::to_string(i % 4) +
                      ", '" + std::string(1, char('a' + i)) + "')");
  }
  const std::vector<std::string> sqls = {
      "SELECT a.z, a.x, b.tag FROM a, b WHERE a.x = b.y AND a.z = 5",
      "SELECT a.z, a.x, b.tag FROM b, a WHERE a.x = b.y AND a.z = 5",
  };
  std::vector<std::vector<Pair>> want;
  for (const std::string& sql : sqls) want.push_back(Pairs(sql));
  ASSERT_EQ(want[0].size(), 2u);
  EXPECT_EQ(want[0], want[1]);

  conn_.MustExecute("CREATE INDEX ax ON a(x)");
  conn_.MustExecute("CREATE INDEX az ON a(z)");
  conn_.MustExecute("ANALYZE a");
  conn_.MustExecute("ANALYZE b");
  for (size_t i = 0; i < sqls.size(); ++i) {
    SCOPED_TRACE(sqls[i]);
    const std::string plan = conn_.MustExecute("EXPLAIN " + sqls[i]).message;
    EXPECT_EQ(plan.find("IndexJoin"), std::string::npos) << plan;
    EXPECT_NE(plan.find("BTREEScan(az)"), std::string::npos) << plan;
    EXPECT_EQ(Pairs(sqls[i]), want[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, JoinOrderTest,
    ::testing::Values(Config{false, 1}, Config{false, 4}, Config{true, 1},
                      Config{true, 4}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.local ? "LocalHash" : "Global") +
             "_Parallel" + std::to_string(info.param.parallelism);
    });

}  // namespace
}  // namespace exi
