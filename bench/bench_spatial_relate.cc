// Experiment E3 (§3.2.2): spatial queries through the framework.
//   (a) Window queries: functional evaluation vs tile domain index vs the
//       R-tree indextype (same operator, swapped indexing scheme).
//   (b) The roads x parks layer join: domain-index join vs the pre-8i
//       explicit tile-join formulation vs brute force.
// Paper claim: framework performance "as good as the prior
// implementation", both far better than unindexed evaluation, with far
// simpler queries.

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

std::string WindowWhere(double x1, double y1, double x2, double y2) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Sdo_Relate(geometry, SDO_GEOMETRY(%g,%g,%g,%g), "
                "'mask=ANYINTERACT')",
                x1, y1, x2, y2);
  return buf;
}

int64_t TimeQuery(Connection* conn, const std::string& sql, size_t* rows) {
  Timer timer;
  QueryResult r = conn->MustExecute(sql);
  *rows = r.rows.size();
  return timer.ElapsedUs();
}

}  // namespace

int main() {
  Header("E3a: spatial window query — functional vs tile index vs R-tree");
  std::printf("%8s %6s | %12s %12s %12s\n", "rects", "hits", "func_us",
              "tile_us", "rtree_us");
  std::vector<uint64_t> window_sizes{500, 2000, 8000};
  if (SmokeMode()) window_sizes = {40};
  for (uint64_t n : window_sizes) {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
    if (!workload::BuildSpatialTable(&conn, "parks", n, 300.0, n).ok()) {
      return 1;
    }
    conn.MustExecute("ANALYZE parks");
    std::string sql = "SELECT gid FROM parks WHERE " +
                      WindowWhere(3000, 3000, 4000, 4000);
    size_t rows;
    TimeQuery(&conn, sql, &rows);  // warm
    int64_t func_us = TimeQuery(&conn, sql, &rows);

    conn.MustExecute(
        "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS "
        "SpatialIndexType PARAMETERS (':TileLevel 6')");
    TimeQuery(&conn, sql, &rows);
    int64_t tile_us = TimeQuery(&conn, sql, &rows);
    conn.MustExecute("DROP INDEX p_tile");

    conn.MustExecute(
        "CREATE INDEX p_rt ON parks(geometry) INDEXTYPE IS RtreeIndexType");
    TimeQuery(&conn, sql, &rows);
    int64_t rtree_us = TimeQuery(&conn, sql, &rows);

    std::printf("%8llu %6zu | %12lld %12lld %12lld\n",
                (unsigned long long)n, rows, (long long)func_us,
                (long long)tile_us, (long long)rtree_us);
  }

  Header("E3b: roads x parks overlap join — 8i domain-index join vs pre-8i");
  const std::string join_sql =
      "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
      "Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  std::printf("%8s %7s | %13s %13s %13s\n", "rects", "pairs", "dijoin_us",
              "legacy_us", "brute_us");
  std::vector<uint64_t> join_sizes{500, 2000, 5000};
  if (SmokeMode()) join_sizes = {40};
  for (uint64_t n : join_sizes) {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
    if (!workload::BuildSpatialTable(&conn, "parks", n, 300.0, n).ok() ||
        !workload::BuildSpatialTable(&conn, "roads", n, 500.0, n + 1)
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS "
        "SpatialIndexType");
    conn.MustExecute("ANALYZE parks");
    conn.MustExecute("ANALYZE roads");

    size_t pairs;
    TimeQuery(&conn, join_sql, &pairs);  // warm
    int64_t dijoin_us = TimeQuery(&conn, join_sql, &pairs);

    Timer legacy_timer;
    if (!spatial::LegacySpatialBuildIndex(&conn, "parks", "geometry", 6)
             .ok() ||
        !spatial::LegacySpatialBuildIndex(&conn, "roads", "geometry", 6)
             .ok()) {
      return 1;
    }
    legacy_timer.Reset();  // query cost only (index build amortized)
    auto legacy = spatial::LegacySpatialJoin(&conn, "roads", "geometry",
                                             "parks", "geometry",
                                             "mask=ANYINTERACT");
    if (!legacy.ok()) return 1;
    int64_t legacy_us = legacy_timer.ElapsedUs();

    int64_t brute_us = -1;
    if (n <= 2000) {
      std::string brute_sql =
          "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
          "SdoRelateFn(p.geometry, r.geometry, 'mask=ANYINTERACT')";
      size_t brute_pairs;
      brute_us = TimeQuery(&conn, brute_sql, &brute_pairs);
    }
    std::printf("%8llu %7zu | %13lld %13lld %13lld\n",
                (unsigned long long)n, pairs, (long long)dijoin_us,
                (long long)legacy_us, (long long)brute_us);
  }

  // The same join with parks HASH-partitioned 4 ways under a LOCAL tile
  // index: every probe scans the four slices in turn.  Same data as the
  // unpartitioned row of the same size, so `pairs` must match it.
  const uint64_t local_n = Scaled(2000, 40);
  size_t local_pairs = 0;
  int64_t local_us = 0;
  {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
    conn.MustExecute(
        "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY) "
        "PARTITION BY HASH (gid) PARTITIONS 4");
    Rng rng(local_n);
    for (uint64_t i = 0; i < local_n; ++i) {
      spatial::Geometry g = workload::RandomRect(&rng, 300.0);
      if (!db.InsertRow("parks",
                        {Value::Integer(int64_t(i)), spatial::ToValue(g)},
                        nullptr)
               .ok()) {
        return 1;
      }
    }
    if (!workload::BuildSpatialTable(&conn, "roads", local_n, 500.0,
                                     local_n + 1)
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS "
        "SpatialIndexType");
    conn.MustExecute("ANALYZE parks");
    conn.MustExecute("ANALYZE roads");
    TimeQuery(&conn, join_sql, &local_pairs);  // warm
    local_us = TimeQuery(&conn, join_sql, &local_pairs);
  }
  std::printf("%8llu %7zu | %13lld   (parks HASH x4, LOCAL tile index)\n",
              (unsigned long long)local_n, local_pairs, (long long)local_us);

  std::printf(
      "\nshape check: both indexed joins scale far below brute force and\n"
      "stay within a small factor of each other (the paper: 'as good as\n"
      "the performance of the prior implementation').\n");
  JsonReport report("spatial_relate");
  report.Add("partitioned_inner_rects", local_n);
  report.Add("partitioned_inner_pairs", uint64_t(local_pairs));
  report.Add("partitioned_inner_dijoin_us", local_us);
  report.Write();
  return 0;
}
