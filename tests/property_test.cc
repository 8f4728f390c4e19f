// Property-based / parameterized suites (TEST_P sweeps): invariants that
// must hold across seeds, batch sizes, tile levels, and scan-context modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "common/rng.h"
#include "engine/connection.h"
#include "engine/workloads.h"
#include "exec/evaluator.h"
#include "index/bptree.h"

namespace exi {
namespace {

// ---------------------------------------------------------------------------
// Property: for any seed, B-tree range scans agree with a std::multimap
// reference on random interleaved operations and random bounds.
// ---------------------------------------------------------------------------
class BtreeOracleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BtreeOracleProperty, RangeScansMatchReference) {
  Rng rng(GetParam());
  Schema schema;
  schema.AddColumn(Column{"k", DataType::Integer()});
  BTreeIndex index("p", schema, {0});
  std::multimap<int64_t, RowId> oracle;
  for (int op = 0; op < 3000; ++op) {
    int64_t key = int64_t(rng.Uniform(200));
    std::vector<Row> entries;
    if (rng.Uniform(4) == 0 && !oracle.empty()) {
      auto it = oracle.find(key);
      if (it != oracle.end()) {
        index.AddEntry(it->second, {Value::Integer(key)}, &entries);
        ASSERT_TRUE(index.Write(std::move(entries), {}, nullptr).ok());
        oracle.erase(it);
      }
    } else {
      RowId rid = RowId(op + 1);
      index.AddEntry(rid, {Value::Integer(key)}, &entries);
      ASSERT_TRUE(index.Write({}, std::move(entries), nullptr).ok());
      oracle.emplace(key, rid);
    }
  }
  for (int q = 0; q < 50; ++q) {
    int64_t lo = int64_t(rng.Uniform(220)) - 10;
    int64_t hi = lo + int64_t(rng.Uniform(100));
    bool lo_incl = rng.Uniform(2) == 0;
    bool hi_incl = rng.Uniform(2) == 0;
    auto rids = index.ScanRange(KeyBound{{Value::Integer(lo)}, lo_incl},
                                KeyBound{{Value::Integer(hi)}, hi_incl});
    std::multiset<RowId> got(rids.begin(), rids.end());
    std::multiset<RowId> expected;
    for (const auto& [k, rid] : oracle) {
      bool in_lo = lo_incl ? k >= lo : k > lo;
      bool in_hi = hi_incl ? k <= hi : k < hi;
      if (in_lo && in_hi) expected.insert(rid);
    }
    ASSERT_EQ(got, expected) << "seed " << GetParam() << " query " << q;
  }
}

// Through SQL: built-in B-tree scans agree with std::multimap references
// on a unique column `u`, a 20-valued column `v`, and a two-column key
// (v, w) whose second column holds NULLs, for the four one-sided bound
// shapes, two-sided ranges, equality and a leading-prefix probe.  Half the
// rows are loaded before CREATE INDEX and half after, in single-row and
// multi-row INSERTs; every scan is checked again after deletes and
// key-changing updates of single rows and of id ranges, after updates
// that leave `u` and `v` alone, after partition DDL, and after a
// transaction that changes all of them is rolled back.  Scans come in
// (key, rowid) order, so rows are compared as sorted id lists.
TEST_P(BtreeOracleProperty, SqlScansMatchReferenceAfterDmlAndRollback) {
  Rng rng(GetParam());
  Database db;
  Connection conn(&db);
  // `t` is indexed on u and on v; `c` holds the same rows under one (v, w)
  // index, so its single-column predicates are prefix probes; `p` is `t`
  // RANGE-partitioned on id under the same two global indexes, with no
  // partition for ids from 100000.
  conn.MustExecute("CREATE TABLE t (id INTEGER, u INTEGER, v INTEGER, "
                   "w INTEGER)");
  conn.MustExecute("CREATE TABLE c (id INTEGER, u INTEGER, v INTEGER, "
                   "w INTEGER)");
  conn.MustExecute(
      "CREATE TABLE p (id INTEGER, u INTEGER, v INTEGER, w INTEGER) "
      "PARTITION BY RANGE (id) (PARTITION p0 VALUES LESS THAN (100), "
      "PARTITION p1 VALUES LESS THAN (200), PARTITION p2 VALUES LESS THAN "
      "(300), PARTITION p3 VALUES LESS THAN (100000))");
  struct Rec {
    int64_t u;
    int64_t v;
    std::optional<int64_t> w;
  };
  std::map<int64_t, Rec> model;
  int64_t next_u = 1000;
  auto random_w = [&] {
    return rng.Uniform(4) == 0 ? std::nullopt
                               : std::optional<int64_t>(rng.Uniform(5));
  };
  auto random_rec = [&] {
    return Rec{next_u++, int64_t(rng.Uniform(20)), random_w()};
  };
  auto sql_w = [](std::optional<int64_t> w) {
    return w ? std::to_string(*w) : std::string("NULL");
  };
  auto values = [&](int64_t id, const Rec& r) {
    return "(" + std::to_string(id) + ", " + std::to_string(r.u) + ", " +
           std::to_string(r.v) + ", " + sql_w(r.w) + ")";
  };
  auto all = [&](const std::string& sql_for_table) {
    for (const char* table : {"t", "c", "p"}) {
      std::string sql = sql_for_table;
      sql.replace(sql.find("%"), 1, table);
      conn.MustExecute(sql);
    }
  };
  int64_t next_id = 1;
  // `n` rows, as single-row INSERTs or as one multi-row INSERT.
  auto insert = [&](int n, bool one_statement) {
    std::string rows;
    for (int i = 0; i < n; ++i) {
      Rec r = random_rec();
      if (!one_statement) all("INSERT INTO % VALUES " + values(next_id, r));
      rows += (i > 0 ? ", " : "") + values(next_id, r);
      model[next_id++] = r;
    }
    if (one_statement && n > 0) all("INSERT INTO % VALUES " + rows);
  };
  auto some_id = [&] {
    auto it = model.begin();
    std::advance(it, rng.Uniform(model.size()));
    return it->first;
  };
  // Deletes and key-changing updates of random rows, in `model` too.
  auto churn = [&](int n) {
    for (int i = 0; i < n && !model.empty(); ++i) {
      int64_t id = some_id();
      if (rng.Uniform(2) == 0) {
        all("DELETE FROM % WHERE id = " + std::to_string(id));
        model.erase(id);
      } else {
        Rec r = random_rec();
        all("UPDATE % SET u = " + std::to_string(r.u) +
            ", v = " + std::to_string(r.v) + ", w = " + sql_w(r.w) +
            " WHERE id = " + std::to_string(id));
        model[id] = r;
      }
    }
  };
  // Statements over a random range of about 40 ids: a DELETE, an UPDATE
  // that moves every `v`, or one that leaves `u` and `v` alone.
  auto churn_ranges = [&](int n) {
    for (int i = 0; i < n && !model.empty(); ++i) {
      const int64_t lo = some_id();
      const int64_t hi = lo + 40;
      const std::string range = " WHERE id >= " + std::to_string(lo) +
                                " AND id < " + std::to_string(hi);
      auto first = model.lower_bound(lo);
      auto last = model.lower_bound(hi);
      switch (rng.Uniform(3)) {
        case 0:
          all("DELETE FROM %" + range);
          model.erase(first, last);
          break;
        case 1:
          all("UPDATE % SET v = v + 1" + range);
          for (auto it = first; it != last; ++it) it->second.v++;
          break;
        default: {
          const std::optional<int64_t> w = random_w();
          all("UPDATE % SET u = u, w = " + sql_w(w) + range);
          for (auto it = first; it != last; ++it) it->second.w = w;
        }
      }
    }
  };

  auto check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    std::multimap<int64_t, int64_t> by_u;
    std::multimap<int64_t, int64_t> by_v;
    for (const auto& [id, r] : model) {
      by_u.emplace(r.u, id);
      by_v.emplace(r.v, id);
    }
    // The ids whose key lies in the bounds, read off the reference.
    auto expect = [](const std::multimap<int64_t, int64_t>& ref,
                     std::optional<int64_t> lo, bool lo_incl,
                     std::optional<int64_t> hi, bool hi_incl) {
      std::vector<int64_t> ids;
      auto it = !lo ? ref.begin()
                    : lo_incl ? ref.lower_bound(*lo) : ref.upper_bound(*lo);
      for (; it != ref.end(); ++it) {
        if (hi && (hi_incl ? it->first > *hi : it->first >= *hi)) break;
        ids.push_back(it->second);
      }
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    auto run = [&](const std::string& table, const std::string& where,
                   const std::string& index) {
      const std::string sql = "SELECT id FROM " + table + " WHERE " + where;
      EXPECT_NE(conn.MustExecute("EXPLAIN " + sql).message.find(
                    "BTREE(" + index + ")"),
                std::string::npos)
          << sql;
      std::vector<int64_t> ids;
      for (const Row& row : conn.MustExecute(sql).rows) {
        ids.push_back(row[0].AsInteger());
      }
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    for (int q = 0; q < 24; ++q) {
      const bool on_u = q % 2 == 0;
      const std::multimap<int64_t, int64_t>& ref = on_u ? by_u : by_v;
      const std::string col = on_u ? "u" : "v";
      // Bounds near stored keys, so equal keys sit on the bounds.
      auto pick = [&]() -> int64_t {
        if (!on_u || model.empty()) return int64_t(rng.Uniform(24)) - 1;
        return model.at(some_id()).u + int64_t(rng.Uniform(3)) - 1;
      };
      int64_t a = pick();
      int64_t b = pick();
      if (a > b) std::swap(a, b);
      const std::string sa = std::to_string(a);
      const std::string sb = std::to_string(b);
      SCOPED_TRACE(col + " a=" + sa + " b=" + sb);
      for (const std::string table : {"t", "p"}) {
        const std::string index = table + "_" + col;
        EXPECT_EQ(run(table, col + " = " + sa, index),
                  expect(ref, a, true, a, true));
        EXPECT_EQ(run(table, col + " > " + sa, index),
                  expect(ref, a, false, std::nullopt, false));
        EXPECT_EQ(run(table, col + " >= " + sa, index),
                  expect(ref, a, true, std::nullopt, false));
        EXPECT_EQ(run(table, col + " < " + sa, index),
                  expect(ref, std::nullopt, false, a, false));
        EXPECT_EQ(run(table, col + " <= " + sa, index),
                  expect(ref, std::nullopt, false, a, true));
        EXPECT_EQ(run(table, col + " > " + sa + " AND " + col + " <= " + sb,
                      index),
                  expect(ref, a, false, b, true));
        EXPECT_EQ(run(table, col + " >= " + sa + " AND " + col + " < " + sb,
                      index),
                  expect(ref, a, true, b, false));
      }
      if (!on_u) {
        // Leading-prefix probe of (v, w): rows whose w is NULL included.
        EXPECT_EQ(run("c", "v = " + sa, "c_vw"), expect(ref, a, true, a, true));
      }
    }
  };

  insert(150, rng.Uniform(2) == 0);
  conn.MustExecute("CREATE INDEX t_u ON t(u)");
  conn.MustExecute("CREATE INDEX t_v ON t(v)");
  conn.MustExecute("CREATE INDEX c_vw ON c(v, w)");
  conn.MustExecute("CREATE INDEX p_u ON p(u)");
  conn.MustExecute("CREATE INDEX p_v ON p(v)");
  insert(75, false);
  insert(75, true);
  check("after load");
  churn(120);
  churn_ranges(6);
  check("after deletes and updates");

  // A multi-row INSERT whose last row fits no partition of `p` fails with
  // ORA-14400 and leaves none of its rows behind.
  std::string rows;
  for (int i = 0; i < 20; ++i) rows += values(next_id + i, random_rec()) + ", ";
  Result<QueryResult> failed = conn.Execute(
      "INSERT INTO p VALUES " + rows + values(100000, random_rec()));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("ORA-14400"), std::string::npos);
  check("after a failed multi-row INSERT");

  // Partition DDL under global indexes, mirrored by range DELETEs.
  conn.MustExecute("ALTER TABLE p TRUNCATE PARTITION p0");
  conn.MustExecute("ALTER TABLE p DROP PARTITION p1");
  conn.MustExecute("DELETE FROM t WHERE id < 200");
  conn.MustExecute("DELETE FROM c WHERE id < 200");
  model.erase(model.begin(), model.lower_bound(200));
  check("after TRUNCATE and DROP PARTITION");

  const std::map<int64_t, Rec> committed = model;
  conn.MustExecute("BEGIN");
  // Inside a transaction an N-row INSERT logs one undo entry per heap row
  // and one merge run per built-in index: N + k.
  rows.clear();
  for (int i = 0; i < 30; ++i) {
    Rec r = random_rec();
    rows += (i > 0 ? ", " : "") + values(next_id, r);
    model[next_id++] = r;
  }
  for (const auto& [table, k] :
       std::vector<std::pair<std::string, size_t>>{{"t", 2}, {"c", 1},
                                                   {"p", 2}}) {
    const size_t depth = db.txns().current()->undo_depth();
    conn.MustExecute("INSERT INTO " + table + " VALUES " + rows);
    EXPECT_EQ(db.txns().current()->undo_depth() - depth, 30 + k) << table;
  }
  insert(10, false);
  churn(80);
  churn_ranges(4);
  check("inside a transaction");
  conn.MustExecute("ROLLBACK");
  model = committed;
  check("after a rolled-back transaction");
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeOracleProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// Property: LIKE matcher agrees with a straightforward recursive reference.
// ---------------------------------------------------------------------------
namespace like_ref {
bool Match(const std::string& t, size_t ti, const std::string& p,
           size_t pi) {
  if (pi == p.size()) return ti == t.size();
  if (p[pi] == '%') {
    for (size_t skip = ti; skip <= t.size(); ++skip) {
      if (Match(t, skip, p, pi + 1)) return true;
    }
    return false;
  }
  if (ti == t.size()) return false;
  if (p[pi] == '_' || p[pi] == t[ti]) return Match(t, ti + 1, p, pi + 1);
  return false;
}
}  // namespace like_ref

class LikeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LikeProperty, AgreesWithReference) {
  Rng rng(GetParam());
  const char alphabet[] = "ab%_";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    std::string pattern;
    for (uint64_t i = rng.Uniform(8); i > 0; --i) {
      text.push_back("ab"[rng.Uniform(2)]);
    }
    for (uint64_t i = rng.Uniform(6); i > 0; --i) {
      pattern.push_back(alphabet[rng.Uniform(4)]);
    }
    EXPECT_EQ(Evaluator::LikeMatch(text, pattern),
              like_ref::Match(text, 0, pattern, 0))
        << "text='" << text << "' pattern='" << pattern << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikeProperty, ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Property: the tile-based spatial index returns exactly the functional
// result for any tile level — coarser tiles cost more candidates, never
// wrong answers.
// ---------------------------------------------------------------------------
class TileLevelProperty : public ::testing::TestWithParam<int> {};

TEST_P(TileLevelProperty, IndexEqualsFunctionalAtAnyLevel) {
  int level = GetParam();
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
  ASSERT_TRUE(workload::BuildSpatialTable(&conn, "g", 250, 500.0, 77).ok());
  std::string where =
      "Sdo_Relate(geometry, SDO_GEOMETRY(2500,2500,4200,4200), "
      "'mask=ANYINTERACT')";
  QueryResult functional =
      conn.MustExecute("SELECT gid FROM g WHERE " + where);
  conn.MustExecute("CREATE INDEX gidx ON g(geometry) INDEXTYPE IS "
                   "SpatialIndexType PARAMETERS (':TileLevel " +
                   std::to_string(level) + "')");
  QueryResult indexed = conn.MustExecute("SELECT gid FROM g WHERE " + where);
  std::set<int64_t> f;
  std::set<int64_t> x;
  for (const Row& row : functional.rows) f.insert(row[0].AsInteger());
  for (const Row& row : indexed.rows) x.insert(row[0].AsInteger());
  EXPECT_EQ(f, x);
  EXPECT_FALSE(f.empty());
}

INSTANTIATE_TEST_SUITE_P(Levels, TileLevelProperty,
                         ::testing::Values(1, 2, 4, 6, 8, 10));

// ---------------------------------------------------------------------------
// Property: domain-index scan results are invariant under the fetch batch
// size and the scan-context mechanism.
// ---------------------------------------------------------------------------
struct ScanConfig {
  size_t batch;
  const char* context_mode;
};

// gtest would otherwise print the parameter's raw bytes, pointer included,
// and test discovery copies that text into the ctest name, which then
// changed with every build. Same for VirConfig below.
void PrintTo(const ScanConfig& config, std::ostream* os) {
  *os << "batch=" << config.batch << " mode=" << config.context_mode;
}

class ScanConfigProperty : public ::testing::TestWithParam<ScanConfig> {};

TEST_P(ScanConfigProperty, TextResultsInvariant) {
  const ScanConfig& config = GetParam();
  Database db;
  db.set_fetch_batch_size(config.batch);
  Connection conn(&db);
  ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
  ASSERT_TRUE(
      workload::BuildTextTable(&conn, "docs", 500, 40, 300, 0.8, 4).ok());
  conn.MustExecute(std::string("CREATE INDEX dt ON docs(body) INDEXTYPE "
                               "IS TextIndexType PARAMETERS "
                               "(':ContextMode ") +
                   config.context_mode + "')");
  conn.MustExecute("ANALYZE docs");
  for (const char* query : {"w1 AND w2", "w5 OR w40", "w1 AND NOT w2"}) {
    QueryResult indexed = conn.MustExecute(
        std::string("SELECT id FROM docs WHERE Contains(body, '") + query +
        "')");
    // Reference: functional evaluation via registered function call form.
    QueryResult functional = conn.MustExecute(
        std::string("SELECT id FROM docs WHERE TextContains(body, '") +
        query + "')");
    std::set<int64_t> a;
    std::set<int64_t> b;
    for (const Row& row : indexed.rows) a.insert(row[0].AsInteger());
    for (const Row& row : functional.rows) b.insert(row[0].AsInteger());
    EXPECT_EQ(a, b) << "batch=" << config.batch << " mode="
                    << config.context_mode << " query=" << query;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ScanConfigProperty,
    ::testing::Values(ScanConfig{1, "handle"}, ScanConfig{3, "handle"},
                      ScanConfig{64, "handle"}, ScanConfig{1000, "handle"},
                      ScanConfig{1, "state"}, ScanConfig{64, "state"},
                      ScanConfig{256, "handle"}, ScanConfig{256, "state"}));

// ---------------------------------------------------------------------------
// Property: substructure screening never loses a match — for molecules
// generated from a known sub-fragment, MolContains finds them all.
// ---------------------------------------------------------------------------
class ChemScreenProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChemScreenProperty, NoFalseNegatives) {
  Rng rng(GetParam());
  Database db;
  db.catalog().set_external_root("/tmp/extidx_prop_chem");
  Connection conn(&db);
  ASSERT_TRUE(chem::InstallChemCartridge(&conn).ok());
  conn.MustExecute("CREATE TABLE m (id INTEGER, smiles VARCHAR(200))");
  // Half the molecules embed the fragment N=S by construction.
  std::set<int64_t> with_fragment;
  for (int i = 0; i < 60; ++i) {
    std::string smiles = workload::RandomSmiles(&rng, 8);
    if (i % 2 == 0) {
      smiles += "N=S";
      with_fragment.insert(i);
    }
    conn.MustExecute("INSERT INTO m VALUES (" + std::to_string(i) + ", '" +
                     smiles + "')");
  }
  conn.MustExecute(
      "CREATE INDEX midx ON m(smiles) INDEXTYPE IS ChemIndexType");
  QueryResult r = conn.MustExecute(
      "SELECT id FROM m WHERE MolContains(smiles, 'N=S')");
  std::set<int64_t> found;
  for (const Row& row : r.rows) found.insert(row[0].AsInteger());
  // Every constructed container must be found (others may legitimately
  // contain N=S by chance, so check superset).
  for (int64_t id : with_fragment) {
    EXPECT_TRUE(found.count(id)) << "seed " << GetParam() << " id " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChemScreenProperty,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Property: VIR index equals functional evaluation across thresholds and
// weight mixes.
// ---------------------------------------------------------------------------
struct VirConfig {
  double threshold;
  const char* weights;
};

// Prints only the weight values, which every config below lists in the
// order globalcolor, localcolor, texture, structure.
void PrintTo(const VirConfig& config, std::ostream* os) {
  *os << "threshold=" << config.threshold << " weights=";
  for (const char* c = config.weights; *c; ++c) {
    if (std::isdigit(static_cast<unsigned char>(*c)) || *c == '.' ||
        *c == ',') {
      *os << *c;
    }
  }
}

class VirEquivalenceProperty : public ::testing::TestWithParam<VirConfig> {};

TEST_P(VirEquivalenceProperty, IndexEqualsFunctional) {
  const VirConfig& config = GetParam();
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(vir::InstallVirCartridge(&conn).ok());
  ASSERT_TRUE(workload::BuildImageTable(&conn, "img", 300, 6, 0.08, 55)
                  .ok());
  workload::SignatureSource probe(6, 0.08, 55);
  vir::Signature q = probe.Next();
  std::ostringstream lit;
  lit << "IMAGE_T(";
  for (size_t i = 0; i < vir::kSignatureDims; ++i) {
    if (i) lit << ",";
    lit << q[i];
  }
  lit << ")";
  std::string where = "VIRSimilar(img, " + lit.str() + ", '" +
                      config.weights + "', " +
                      std::to_string(config.threshold) + ")";
  QueryResult functional =
      conn.MustExecute("SELECT id FROM img WHERE " + where);
  conn.MustExecute(
      "CREATE INDEX iidx ON img(img) INDEXTYPE IS VirIndexType");
  QueryResult indexed = conn.MustExecute("SELECT id FROM img WHERE " + where);
  std::set<int64_t> f;
  std::set<int64_t> x;
  for (const Row& row : functional.rows) f.insert(row[0].AsInteger());
  for (const Row& row : indexed.rows) x.insert(row[0].AsInteger());
  EXPECT_EQ(f, x) << where;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VirEquivalenceProperty,
    ::testing::Values(
        VirConfig{0.05, "globalcolor=1,localcolor=1,texture=1,structure=1"},
        VirConfig{0.3, "globalcolor=1,localcolor=1,texture=1,structure=1"},
        VirConfig{1.5, "globalcolor=1,localcolor=1,texture=1,structure=1"},
        VirConfig{0.2, "globalcolor=0.5,localcolor=0,texture=0.5,"
                       "structure=0"},
        VirConfig{0.2, "globalcolor=0,localcolor=1,texture=0,structure=1"},
        VirConfig{4.0, "globalcolor=0.1,localcolor=0.1,texture=0.1,"
                       "structure=0.1"}));

}  // namespace
}  // namespace exi
