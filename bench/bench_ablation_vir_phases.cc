// Ablation: the VIR multi-level filter's phases (§3.2.3).
// Full 3-phase pipeline vs a pipeline with phase 1 disabled (zero
// globalcolor weight forces a full coarse-table scan) vs no index at all
// (a copy of the same images without an index), isolating where the
// speedup comes from.
//
// Shape check: the phase-1 bucket window shrinks the candidate set before
// any per-candidate work; without it, phase 2 must scan every coarse record
// — still far better than full signature comparisons.

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
  const uint64_t kImages = Scaled(60000, 200);
  Database db;
  Connection conn(&db);
  if (!vir::InstallVirCartridge(&conn).ok() ||
      !workload::BuildImageTable(&conn, "scan", kImages, 16, 0.04, 3).ok() ||
      !workload::BuildImageTable(&conn, "indexed", kImages, 16, 0.04, 3)
           .ok()) {
    return 1;
  }
  conn.MustExecute(
      "CREATE INDEX iidx ON indexed(img) INDEXTYPE IS VirIndexType");
  conn.MustExecute("ANALYZE scan");
  conn.MustExecute("ANALYZE indexed");
  workload::SignatureSource probe(16, 0.04, 3);
  const std::string query_img = ImageLiteral(probe.Next());

  // Same effective similarity space, with and without a phase-1 window:
  // weights (0.5, 0, 0.5, 0) enable the globalcolor window; weights
  // (0, 0.5, 0.5, 0) disable it (localcolor carries the mass instead).
  // The functional scan uses the first mix.
  struct Config {
    const char* pipeline;
    const char* table;
    const char* weights;
    int64_t matches = 0;
    vir::VirIndexMethods::PhaseCounters funnel = {};
  };
  Config configs[] = {
      {"functional", "scan",
       "globalcolor=0.5,localcolor=0.0,texture=0.5,structure=0.0"},
      {"3_phase", "indexed",
       "globalcolor=0.5,localcolor=0.0,texture=0.5,structure=0.0"},
      {"2_phase", "indexed",
       "globalcolor=0.0,localcolor=0.5,texture=0.5,structure=0.0"},
  };
  std::vector<std::function<void()>> runs;
  for (size_t i = 0; i < std::size(configs); ++i) {
    runs.push_back([&, i] {
      Config& c = configs[i];
      c.matches = conn.MustExecute(std::string("SELECT COUNT(*) FROM ") +
                                   c.table + " WHERE VIRSimilar(img, " +
                                   query_img + ", '" + c.weights + "', 0.10)")
                      .rows[0][0]
                      .AsInteger();
      c.funnel = vir::VirIndexMethods::last_counters();
    });
  }
  std::vector<Series> times = TimeAlternating(runs);

  JsonReport report("ablation_vir_phases",
                    "ablation: VIR filter phases");
  report.Add("images", kImages);
  Table& table =
      report.AddTimedTable("pipelines", {"pipeline", "matches"});
  for (size_t i = 0; i < runs.size(); ++i) {
    table.Add({configs[i].pipeline, configs[i].matches}, times[i]);
  }
  Table& funnel = report.AddTable(
      "funnel", {"pipeline", "phase1_candidates", "phase2_survivors",
                 "matches"});
  for (size_t i = 1; i < runs.size(); ++i) {
    const auto& f = configs[i].funnel;
    funnel.Add({configs[i].pipeline, f.phase1_candidates, f.phase2_survivors,
                f.matches});
  }
  return report.Write() ? 0 : 1;
}
