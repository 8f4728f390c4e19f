// Property-based / parameterized suites (TEST_P sweeps): invariants that
// must hold across seeds, batch sizes, tile levels, and scan-context modes.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
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
  BTreeIndex index("p");
  std::multimap<int64_t, RowId> oracle;
  for (int op = 0; op < 3000; ++op) {
    int64_t key = int64_t(rng.Uniform(200));
    if (rng.Uniform(4) == 0 && !oracle.empty()) {
      auto it = oracle.find(key);
      if (it != oracle.end()) {
        index.Delete({Value::Integer(key)}, it->second);
        oracle.erase(it);
      }
    } else {
      RowId rid = RowId(op + 1);
      index.Insert({Value::Integer(key)}, rid);
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
                      ScanConfig{1, "state"}, ScanConfig{64, "state"}));

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
