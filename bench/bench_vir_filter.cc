// Experiment E4 (§3.2.3): multi-level filtering makes large image tables
// feasible.  Per table size: per-row full-signature comparison (pre-8i
// behavior, a table without an index) vs the 3-phase domain-index scan
// (a copy of the same images with an index), with the filter funnel.
//
// Shape check: the index advantage grows with table size; the two coarse
// phases discard the overwhelming majority of rows before any full signature
// is compared (the paper: content-based queries on millions of rows became
// possible).

#include <cstdio>
#include <sstream>

#include "bench/bench_util.h"
#include "cartridge/vir/vir_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

std::string ImageLiteral(const vir::Signature& sig) {
  std::ostringstream os;
  os << "IMAGE_T(";
  for (size_t i = 0; i < vir::kSignatureDims; ++i) {
    if (i) os << ",";
    os << sig[i];
  }
  os << ")";
  return os.str();
}

}  // namespace

int main() {
  JsonReport report("vir_filter",
                    "E4: image similarity, per-row comparison vs VIR filter");
  Table& queries =
      report.AddTimedTable("queries", {"images", "plan", "matches"});
  Table& funnel = report.AddTable(
      "funnel", {"images", "phase1_candidates", "phase2_survivors", "matches"});
  std::vector<uint64_t> sizes{10000, 50000, 200000};
  if (SmokeMode()) sizes = {200};
  for (uint64_t n : sizes) {
    Database db;
    Connection conn(&db);
    if (!vir::InstallVirCartridge(&conn).ok() ||
        !workload::BuildImageTable(&conn, "scan", n, 16, 0.04, n).ok() ||
        !workload::BuildImageTable(&conn, "indexed", n, 16, 0.04, n).ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX img_idx ON indexed(img) INDEXTYPE IS VirIndexType");
    conn.MustExecute("ANALYZE scan");
    conn.MustExecute("ANALYZE indexed");
    workload::SignatureSource probe(16, 0.04, n);
    const std::string where = " WHERE VIRSimilar(img, " +
                              ImageLiteral(probe.Next()) +
                              ", 'globalcolor=0.5,localcolor=0.0,texture=0.5,"
                              "structure=0.0', 0.12)";
    size_t matches[2] = {0, 0};
    vir::VirIndexMethods::PhaseCounters counters;
    std::vector<Series> times = TimeAlternating({
        [&] {
          matches[0] = conn.MustExecute("SELECT id FROM scan" + where)
                           .rows.size();
        },
        [&] {
          matches[1] = conn.MustExecute("SELECT id FROM indexed" + where)
                           .rows.size();
          counters = vir::VirIndexMethods::last_counters();
        },
    });
    if (matches[0] != matches[1]) {
      std::printf("RESULT MISMATCH at n=%llu: %zu vs %zu\n",
                  (unsigned long long)n, matches[0], matches[1]);
      return 1;
    }
    queries.Add({n, "functional", matches[0]}, times[0]);
    queries.Add({n, "vir_index", matches[1]}, times[1]);
    funnel.Add({n, counters.phase1_candidates, counters.phase2_survivors,
                counters.matches});
  }
  return report.Write() ? 0 : 1;
}
