// Index build: wall time of `CREATE INDEX` at session parallelism 1, where
// every cartridge builds with one ODCIIndexCreate.  Text at 10k, 20k and
// 50k documents (tokenize the table, sort the postings, one sorted
// IotBulkLoad); the spatial tile index over 20k rectangles at :TileLevel 6
// (sort the (tile, rid) pairs) and VIR over 20k images (sort the coarse
// rows), each with one sorted IotBulkLoad.  Emits BENCH_text_build.json.
//
// Each configuration is built `kReps` times on the same table (DROP INDEX
// in between) and reports the median, min and max build time.  Next to the
// times it records host-independent work counts for one build (IOT entries
// written, B+-tree nodes read), the row count of a query through the index,
// and `heap_bytes_per_entry`: the growth of glibc's in-use heap
// (`mallinfo2().uordblks`) across the first build, divided by the IOT
// entries it wrote.  That is what the finished index keeps in memory per
// entry: the row, its key and their share of the B+-tree nodes.

#include <malloc.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

constexpr int kReps = 5;

// One indexed table: `create` builds index `bx`, `query` reads through it.
struct BuildCase {
  const char* cartridge;
  uint64_t rows;
  std::string create;
  std::string query;
};

struct BuildStats {
  const char* cartridge = "";
  uint64_t rows = 0;
  Spread<double> ms{};
  uint64_t entries_written = 0;
  uint64_t nodes_read = 0;
  size_t query_rows = 0;
  double heap_bytes_per_entry = 0;
};

// Builds `c`'s index kReps times over the table `conn` already holds.
BuildStats Measure(Connection& conn, const BuildCase& c) {
  BuildStats stats;
  stats.cartridge = c.cartridge;
  stats.rows = c.rows;
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    MetricsWindow window;
    const size_t heap_before = mallinfo2().uordblks;
    Timer timer;
    conn.MustExecute(c.create);
    ms.push_back(timer.ElapsedMs());
    const size_t heap_after = mallinfo2().uordblks;
    StorageMetrics delta = window.Delta();
    stats.entries_written = delta.index_entries_written;
    if (rep == 0 && stats.entries_written > 0) {
      stats.heap_bytes_per_entry =
          (double(heap_after) - double(heap_before)) / stats.entries_written;
    }
    stats.nodes_read = delta.index_nodes_read;
    stats.query_rows = conn.MustExecute(c.query).rows.size();
    conn.MustExecute("DROP INDEX bx");
  }
  stats.ms = SpreadOf(ms);
  std::printf(
      "%-12s %8llu | %10.1f %10.1f %10.1f | %12llu %12llu | %7zu | %8.1f\n",
      stats.cartridge, (unsigned long long)stats.rows, stats.ms.median,
      stats.ms.min, stats.ms.max, (unsigned long long)stats.entries_written,
      (unsigned long long)stats.nodes_read, stats.query_rows,
      stats.heap_bytes_per_entry);
  return stats;
}

}  // namespace

int main() {
  Header("Index build: one ODCIIndexCreate per cartridge, parallelism 1");
  std::printf("%-12s %8s | %10s %10s %10s | %12s %12s | %7s | %8s\n",
              "cartridge", "rows", "median_ms", "min_ms", "max_ms",
              "entries_wr", "nodes_read", "q_rows", "heap_B/e");
  std::vector<BuildStats> results;
  std::vector<uint64_t> text_sizes{10000, 20000, 50000};
  if (SmokeMode()) text_sizes = {60};
  for (uint64_t docs : text_sizes) {
    Database db;
    Connection conn(&db);
    if (!text::InstallTextCartridge(&conn).ok()) return 1;
    // The E1/E6 corpus: Zipf 0.9 over 5,000 words, 60 words a document.
    if (!workload::BuildTextTable(&conn, "docs", docs, 60, 5000, 0.9, docs)
             .ok()) {
      return 1;
    }
    results.push_back(Measure(
        conn, {"text", docs,
               "CREATE INDEX bx ON docs(body) INDEXTYPE IS TextIndexType",
               "SELECT id FROM docs WHERE Contains(body, 'w3 AND w11')"}));
  }
  {
    const uint64_t rects = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok() ||
        !workload::BuildSpatialTable(&conn, "parcels", rects, 200.0, 6)
             .ok()) {
      return 1;
    }
    results.push_back(Measure(
        conn, {"spatial_tile", rects,
               "CREATE INDEX bx ON parcels(geometry) INDEXTYPE IS "
               "SpatialIndexType PARAMETERS (':TileLevel 6')",
               "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, "
               "SDO_GEOMETRY(2000,2000,4000,4000), 'mask=ANYINTERACT')"}));
  }
  {
    const uint64_t images = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    if (!vir::InstallVirCartridge(&conn).ok() ||
        !workload::BuildImageTable(&conn, "imgs", images, 8, 0.1, 9).ok()) {
      return 1;
    }
    results.push_back(Measure(
        conn, {"vir", images,
               "CREATE INDEX bx ON imgs(img) INDEXTYPE IS VirIndexType",
               "SELECT id FROM imgs WHERE VIRSimilar(img, IMAGE_T(0.5,0.5,"
               "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5), "
               "'globalcolor=1', 1.5)"}));
  }

  std::string builds = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const BuildStats& s = results[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"cartridge\": \"%s\", \"rows\": %llu, \"parallelism\": 1, "
        "\"reps\": %d, \"build_ms_median\": %.1f, \"build_ms_min\": %.1f, "
        "\"build_ms_max\": %.1f, \"index_entries_written\": %llu, "
        "\"index_nodes_read\": %llu, \"query_rows\": %zu, "
        "\"heap_bytes_per_entry\": %.1f}",
        i == 0 ? "" : ",", s.cartridge, (unsigned long long)s.rows,
        kReps, s.ms.median, s.ms.min, s.ms.max,
        (unsigned long long)s.entries_written,
        (unsigned long long)s.nodes_read, s.query_rows,
        s.heap_bytes_per_entry);
    builds += buf;
  }
  builds += "\n  ]";
  JsonReport report("text_build");
  report.AddRaw("builds", builds);
  return report.Write() ? 0 : 1;
}
