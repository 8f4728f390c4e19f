// Parallelism sweep: the domain-index join's probe window at 1, 2 and 4
// workers on the real spatial tile cartridge, emitting BENCH_parallel.json.
//
// The join is the one operator the worker pool serves: each outer road is
// one probe (ODCIIndexStart/Fetch*/Close) of the inner parks' tile index,
// and the window keeps 2 x parallelism probes in flight, merged in outer
// order.  Plain index scans are serial at every parallelism and are not
// swept here (EXPERIMENTS.md E11 records why).  Worker counts alternate
// within each repetition so drift on a shared host hits every count alike.
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

int main() {
  const uint64_t roads = Scaled(2000, 40);
  const uint64_t parks = Scaled(20000, 400);

  Database db;
  Connection conn(&db);
  if (!spatial::InstallSpatialCartridge(&conn).ok() ||
      !workload::BuildSpatialTable(&conn, "roads", roads, 500.0, 7).ok() ||
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

  const std::vector<size_t> workers = {1, 2, 4};
  std::vector<size_t> rows(workers.size());
  std::vector<std::function<void()>> runs;
  for (size_t i = 0; i < workers.size(); ++i) {
    runs.push_back([&, i] {
      db.set_parallelism(workers[i]);
      rows[i] = conn.MustExecute(q).rows.size();
    });
  }
  std::vector<Series> times = TimeAlternating(runs);
  db.set_parallelism(1);

  JsonReport report("parallel",
                    "Parallelism sweep: domain-index join probe window");
  report.Add("outer_rows", roads);
  report.Add("inner_rows", parks);
  Table& join =
      report.AddTimedTable("join", {"workers", "rows", "odci_starts"});
  for (size_t i = 0; i < workers.size(); ++i) {
    join.Add({workers[i], rows[i], times[i].work().odci_start_calls},
             times[i]);
  }
  report.Add("join_speedup_4_workers",
             times.front().ms().median / times.back().ms().median);
  return report.Write() ? 0 : 1;
}
