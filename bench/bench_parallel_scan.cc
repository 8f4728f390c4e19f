// Parallelism sweep: the domain-index join's probe window at 1, 2 and 4
// workers on the real spatial tile cartridge, emitting BENCH_parallel.json.
//
// The join is the one operator the worker pool serves: each outer road is
// one probe (ODCIIndexStart/Fetch*/Close) of the inner parks' tile index,
// and the window keeps 2 x parallelism probes in flight, merged in outer
// order.  Plain index scans are serial at every parallelism and are not
// swept here (EXPERIMENTS.md E11 records why).  Worker counts are timed in
// alternating rounds so drift on a shared host hits every count alike.
// Result rows and ODCIIndexStart calls sit next to each time: both are
// counts, so they must agree across worker counts on any host.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

constexpr size_t kRepeats = 7;

// One worker count's repeated runs.
struct Sweep {
  size_t workers;
  std::vector<double> ms;
  uint64_t rows = 0;
  uint64_t starts = 0;  // ODCIIndexStart calls in one run
};

uint64_t StartCalls(const TracerSnapshot& window) {
  uint64_t calls = 0;
  for (const auto& [key, stats] : window) {
    if (key.second == "ODCIIndexStart") calls += stats.calls;
  }
  return calls;
}

}  // namespace

int main() {
  Header("Parallelism sweep: domain-index join probe window");
  const uint64_t roads = Scaled(2000, 40);
  const uint64_t parks = Scaled(20000, 400);

  Database db;
  Connection conn(&db);
  if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
  if (!workload::BuildSpatialTable(&conn, "roads", roads, 500.0, 7).ok() ||
      !workload::BuildSpatialTable(&conn, "parks", parks, 300.0, 8).ok()) {
    return 1;
  }
  conn.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS SpatialIndexType");
  conn.MustExecute("ANALYZE roads");
  conn.MustExecute("ANALYZE parks");

  const std::string q =
      "SELECT r.gid, p.gid FROM roads r, parks p "
      "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  std::printf("\n%s\n", conn.MustExecute("EXPLAIN " + q).message.c_str());
  conn.MustExecute(q);  // warm

  std::vector<Sweep> sweeps = {{1, {}}, {2, {}}, {4, {}}};
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    for (Sweep& s : sweeps) {
      db.set_parallelism(s.workers);
      TracerSnapshot before = Tracer::Global().Snapshot();
      Timer timer;
      QueryResult r = conn.MustExecute(q);
      s.ms.push_back(timer.ElapsedMs());
      s.rows = r.rows.size();
      s.starts = StartCalls(TracerDelta(Tracer::Global().Snapshot(), before));
    }
  }
  db.set_parallelism(1);

  std::printf("\njoin: %llu roads x %llu parks, %zu alternating repeats\n",
              (unsigned long long)roads, (unsigned long long)parks, kRepeats);
  std::printf("%8s | %10s %10s %10s | %8s %8s | %8s\n", "workers",
              "median_ms", "min_ms", "max_ms", "rows", "starts", "speedup");
  const double base = SpreadOf(sweeps.front().ms).median;
  std::string json = "[";
  for (const Sweep& s : sweeps) {
    const Spread<double> t = SpreadOf(s.ms);
    std::printf("%8zu | %10.1f %10.1f %10.1f | %8llu %8llu | %7.2fx\n",
                s.workers, t.median, t.min, t.max,
                (unsigned long long)s.rows, (unsigned long long)s.starts,
                base / t.median);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"workers\": %zu, \"ms_median\": %.1f, \"ms_min\": "
                  "%.1f, \"ms_max\": %.1f, \"rows\": %llu, \"odci_starts\": "
                  "%llu}",
                  json.size() > 1 ? ", " : "", s.workers, t.median, t.min,
                  t.max, (unsigned long long)s.rows,
                  (unsigned long long)s.starts);
    json += buf;
  }
  json += "]";

  JsonReport report("parallel");
  report.Add("note",
             "real spatial tile join, no simulated latency; worker counts "
             "timed in alternating rounds");
  report.Add("outer_rows", roads);
  report.Add("inner_rows", parks);
  report.Add("repeats", uint64_t(kRepeats));
  report.AddRaw("join", json);
  report.Add("join_speedup_4_workers",
             base / SpreadOf(sweeps.back().ms).median);
  if (!report.Write()) return 1;
  return 0;
}
