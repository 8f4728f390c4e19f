// Parallelism sweep: domain-index join wall time at 1, 2, 4, and 8
// workers, emitting BENCH_parallel.json.
//
// CPU-bound callbacks need cores to speed up with more threads.  Real
// cartridge callbacks are often dominated by storage latency (the paper's
// cartridges sit on LOBs, external files, and disk-resident IOTs); we model
// that with a bench-local "Slow" spatial cartridge whose Start sleeps a
// fixed latency.  The worker pool then hides that latency: N workers keep
// N probes' worth of storage waits in flight, which is exactly the effect
// the windowed join probes exist to exploit.  Index builds are serial at
// any parallelism; E12 (bench_text_build) times them.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

// Per-ODCIIndexStart latency modeled for the join-probe sweep.
constexpr int64_t kProbeLatencyUs = 1500;

// Spatial cartridge whose Start (one probe of the inner index per outer
// row in a domain-index join) carries storage latency.
class SlowSpatialIndexMethods : public spatial::SpatialIndexMethods {
 public:
  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override {
    std::this_thread::sleep_for(std::chrono::microseconds(kProbeLatencyUs));
    return spatial::SpatialIndexMethods::Start(info, pred, ctx);
  }
};

double Speedup(const std::vector<std::pair<size_t, double>>& rows,
               size_t workers) {
  double base = 0, at = 0;
  for (const auto& [w, ms] : rows) {
    if (w == 1) base = ms;
    if (w == workers) at = ms;
  }
  return at > 0 ? base / at : 0.0;
}

// `rows` as a JSON array of {"workers": w, "ms": t} objects.
std::string MsArray(const std::vector<std::pair<size_t, double>>& rows) {
  std::string out = "[";
  for (const auto& [workers, ms] : rows) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s{\"workers\": %zu, \"ms\": %.1f}",
                  out.size() > 1 ? ", " : "", workers, ms);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main() {
  Header("Parallelism sweep: domain-index join");
  const std::vector<size_t> kWorkers = {1, 2, 4, 8};

  // ---- parallel domain-index join ----
  std::vector<std::pair<size_t, double>> join_ms;
  size_t join_rows = 0;
  const uint64_t outer_rows = Scaled(120, 20);
  {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
    if (!db.catalog()
             .implementations()
             .Register(
                 "SlowSpatialIndexMethods",
                 [] { return std::make_shared<SlowSpatialIndexMethods>(); },
                 [] { return std::make_shared<spatial::SpatialStats>(); })
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEXTYPE SlowSpatialIndexType FOR Sdo_Relate("
        "OBJECT SDO_GEOMETRY, OBJECT SDO_GEOMETRY, VARCHAR) "
        "USING SlowSpatialIndexMethods");
    if (!workload::BuildSpatialTable(&conn, "roads", outer_rows, 500.0, 7)
             .ok() ||
        !workload::BuildSpatialTable(&conn, "parks", Scaled(400, 40), 300.0,
                                     8)
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX p_tile ON parks(geometry) "
        "INDEXTYPE IS SlowSpatialIndexType");
    conn.MustExecute("ANALYZE roads");
    conn.MustExecute("ANALYZE parks");

    const std::string q =
        "SELECT r.gid, p.gid FROM roads r, parks p "
        "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
    conn.MustExecute(q);  // warm

    std::printf("\njoin: %llu outer rows, %lldus per inner-index probe\n",
                (unsigned long long)outer_rows, (long long)kProbeLatencyUs);
    std::printf("%10s | %12s %10s %10s\n", "workers", "join_ms", "rows",
                "speedup");
    for (size_t w : kWorkers) {
      db.set_parallelism(w);
      Timer timer;
      QueryResult r = conn.MustExecute(q);
      double ms = timer.ElapsedMs();
      join_rows = r.rows.size();
      join_ms.emplace_back(w, ms);
      std::printf("%10zu | %12.1f %10zu %9.2fx\n", w, ms, join_rows,
                  Speedup(join_ms, w));
    }
  }

  // ---- machine-readable output ----
  char note[256];
  std::snprintf(note, sizeof(note),
                "per-probe storage latency is simulated with a sleep "
                "(%lldus per join probe) so worker threads hide latency "
                "rather than compete for CPU",
                (long long)kProbeLatencyUs);
  JsonReport report("parallel");
  report.Add("note", note);
  report.AddRaw("join", MsArray(join_ms));
  report.Add("join_result_rows", uint64_t(join_rows));
  report.Add("join_speedup_4_workers", Speedup(join_ms, 4));
  std::printf("\njoin 4w speedup %.2fx\n", Speedup(join_ms, 4));
  if (!report.Write()) return 1;
  return 0;
}
