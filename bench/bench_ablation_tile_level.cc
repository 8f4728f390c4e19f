// Ablation: spatial tile refinement (the ':TileLevel' PARAMETER).
// Coarse tiles mean few index entries but many false-positive candidates
// for the exact filter; fine tiles invert the trade.  This is the design
// knob the PARAMETERS clause exists to expose (§2.3) — the end user tunes
// the cartridge without touching its code.  Each level indexes its own
// copy of the same rectangles, and the levels' queries alternate.
//
// Shape check: hits are identical at every level (tile level is a
// performance knob, never a correctness one); index size grows with
// refinement while per-query reads bottom out at a sweet spot.

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

int main() {
  const uint64_t kRects = Scaled(4000, 80);
  const std::vector<int> levels = {2, 3, 4, 5, 6, 8, 10};
  Database db;
  Connection conn(&db);
  if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
  std::vector<int64_t> hits(levels.size());
  std::vector<std::function<void()>> runs;
  for (size_t i = 0; i < levels.size(); ++i) {
    const std::string table = "g" + std::to_string(levels[i]);
    if (!workload::BuildSpatialTable(&conn, table, kRects, 300.0, 7).ok()) {
      return 1;
    }
    conn.MustExecute("CREATE INDEX " + table + "_idx ON " + table +
                     "(geometry) INDEXTYPE IS SpatialIndexType PARAMETERS "
                     "(':TileLevel " + std::to_string(levels[i]) + "')");
    conn.MustExecute("ANALYZE " + table);
    runs.push_back([&, i, table] {
      hits[i] = conn.MustExecute("SELECT COUNT(*) FROM " + table +
                                 " WHERE Sdo_Relate(geometry, "
                                 "SDO_GEOMETRY(3000,3000,3800,3800), "
                                 "'mask=ANYINTERACT')")
                    .rows[0][0]
                    .AsInteger();
    });
  }
  std::vector<Series> times = TimeAlternating(runs);

  JsonReport report("ablation_tile_level",
                    "ablation: tile level, index size vs candidate precision");
  report.Add("rects", kRects);
  Table& out =
      report.AddTimedTable("levels", {"level", "iot_entries", "hits"});
  for (size_t i = 0; i < levels.size(); ++i) {
    const std::string tiles = "g" + std::to_string(levels[i]) + "_idx$ttab";
    out.Add({levels[i], (*db.catalog().GetIot(tiles))->row_count(), hits[i]},
            times[i]);
  }
  return report.Write() ? 0 : 1;
}
