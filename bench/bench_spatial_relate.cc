// Experiment E3 (§3.2.2): spatial queries through the framework.
//   (a) Window queries: functional evaluation vs tile domain index vs the
//       R-tree indextype (same operator, swapped indexing scheme), each on
//       its own copy of the same rectangles.
//   (b) The roads x parks layer join: domain-index join vs the pre-8i
//       explicit tile-join formulation vs brute force, and the domain-index
//       join over a HASH-partitioned inner table with a LOCAL tile index.
// Paper claim: framework performance "as good as the prior
// implementation", both far better than unindexed evaluation, with far
// simpler queries.
//
// Shape check: both indexed joins scale far below brute force and stay
// within a small factor of each other (the paper: 'as good as the
// performance of the prior implementation').

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/legacy_spatial.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "common/rng.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

const char* const kJoin =
    "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
    "Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";

// parks HASH-partitioned 4 ways: every join probe scans four LOCAL slices.
bool BuildHashParks(Database* db, Connection* conn, uint64_t n) {
  conn->MustExecute(
      "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY) "
      "PARTITION BY HASH (gid) PARTITIONS 4");
  Rng rng(n);
  for (uint64_t i = 0; i < n; ++i) {
    spatial::Geometry g = workload::RandomRect(&rng, 300.0);
    if (!db->InsertRow("parks", {Value::Integer(int64_t(i)),
                                 spatial::ToValue(g)},
                       nullptr)
             .ok()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  JsonReport report("spatial_relate",
                    "E3: spatial window query and layer join, 8i vs pre-8i");
  Table& window = report.AddTimedTable("window", {"rects", "plan", "hits"});
  std::vector<uint64_t> window_sizes{500, 2000, 8000};
  if (SmokeMode()) window_sizes = {40};
  for (uint64_t n : window_sizes) {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
    const char* plans[] = {"functional", "tile", "rtree"};
    for (const char* plan : plans) {
      if (!workload::BuildSpatialTable(&conn, plan, n, 300.0, n).ok()) {
        return 1;
      }
    }
    conn.MustExecute(
        "CREATE INDEX t_idx ON tile(geometry) INDEXTYPE IS SpatialIndexType "
        "PARAMETERS (':TileLevel 6')");
    conn.MustExecute(
        "CREATE INDEX r_idx ON rtree(geometry) INDEXTYPE IS RtreeIndexType");
    size_t hits[3] = {0, 0, 0};
    std::vector<std::function<void()>> runs;
    for (int p = 0; p < 3; ++p) {
      conn.MustExecute(std::string("ANALYZE ") + plans[p]);
      runs.push_back([&, p] {
        hits[p] = conn.MustExecute(std::string("SELECT gid FROM ") +
                                   plans[p] +
                                   " WHERE Sdo_Relate(geometry, "
                                   "SDO_GEOMETRY(3000,3000,4000,4000), "
                                   "'mask=ANYINTERACT')")
                      .rows.size();
      });
    }
    std::vector<Series> times = TimeAlternating(runs);
    for (int p = 0; p < 3; ++p) window.Add({n, plans[p], hits[p]}, times[p]);
  }

  Table& join =
      report.AddTimedTable("join", {"rects", "inner", "plan", "pairs"});
  std::vector<uint64_t> join_sizes{500, 2000, 5000};
  if (SmokeMode()) join_sizes = {40};
  for (uint64_t n : join_sizes) {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok() ||
        !workload::BuildSpatialTable(&conn, "parks", n, 300.0, n).ok() ||
        !workload::BuildSpatialTable(&conn, "roads", n, 500.0, n + 1).ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS "
        "SpatialIndexType");
    conn.MustExecute("ANALYZE parks");
    conn.MustExecute("ANALYZE roads");
    // The legacy tile tables are built once, outside the timed query.
    if (!spatial::LegacySpatialBuildIndex(&conn, "parks", "geometry", 6)
             .ok() ||
        !spatial::LegacySpatialBuildIndex(&conn, "roads", "geometry", 6)
             .ok()) {
      return 1;
    }
    size_t pairs[3] = {0, 0, 0};
    std::vector<std::function<void()>> runs = {
        [&] { pairs[0] = conn.MustExecute(kJoin).rows.size(); },
        [&] {
          auto legacy = spatial::LegacySpatialJoin(
              &conn, "roads", "geometry", "parks", "geometry",
              "mask=ANYINTERACT");
          pairs[1] = legacy.ok() ? legacy->size() : 0;
        },
        [&] {
          pairs[2] = conn.MustExecute(
                             "SELECT r.gid, p.gid FROM roads r, parks p "
                             "WHERE SdoRelateFn(p.geometry, r.geometry, "
                             "'mask=ANYINTERACT')")
                         .rows.size();
        }};
    if (n > 2000) runs.pop_back();  // brute force is quadratic
    std::vector<Series> times = TimeAlternating(runs);
    const char* plans[] = {"domain_join", "legacy", "brute_force"};
    for (size_t p = 0; p < times.size(); ++p) {
      join.Add({n, "global", plans[p], pairs[p]}, times[p]);
    }
  }

  // The 2000-rect join with parks under a LOCAL tile index: same data as
  // the unpartitioned row of the same size, so `pairs` must match it.
  const uint64_t local_n = Scaled(2000, 40);
  Database db;
  Connection conn(&db);
  if (!spatial::InstallSpatialCartridge(&conn).ok() ||
      !BuildHashParks(&db, &conn, local_n) ||
      !workload::BuildSpatialTable(&conn, "roads", local_n, 500.0,
                                   local_n + 1)
           .ok()) {
    return 1;
  }
  conn.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS SpatialIndexType");
  conn.MustExecute("ANALYZE parks");
  conn.MustExecute("ANALYZE roads");
  size_t local_pairs = 0;
  Series local = TimeAlternating(
      {[&] { local_pairs = conn.MustExecute(kJoin).rows.size(); }})[0];
  join.Add({local_n, "hash4_local", "domain_join", local_pairs}, local);

  return report.Write() ? 0 : 1;
}
