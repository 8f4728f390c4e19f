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
// the postings the index holds, and the growth of glibc's in-use heap
// (`mallinfo2().uordblks`) across the first build divided by each count:
// `heap_bytes_per_entry` per IOT entry, and `heap_bytes_per_posting` per
// posting.  That is what the finished index keeps in memory: the rows and
// their share of the B+-tree nodes.  A text entry is a block of up to
// 1,024 rowids of one term, so its postings are the sum of the blocks'
// df; every other cartridge writes one entry per posting.  Two built-in
// B-tree builds over a 20k-row table, one on a unique INTEGER column and
// one on a 20-valued one, give the same figures for the engine's own
// index, whose entry is one (key, rowid) row.

#include <malloc.h>

#include <algorithm>
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
// `block_iot` names the index's block IOT, whose df column counts its
// postings (text), or is empty when each entry is one posting.
struct BuildCase {
  const char* cartridge;
  uint64_t rows;
  std::string create;
  std::string query;
  std::string block_iot;
};

// The postings of IOT `name`: the sum of its df column (column 2).
uint64_t BlockPostings(Connection& conn, const std::string& name) {
  uint64_t postings = 0;
  Result<Iot*> iot = conn.db()->catalog().GetIot(name);
  if (!iot.ok()) return 0;
  (*iot)->ScanRange(nullptr, true, nullptr, true, [&](const Row& row) {
    postings += uint64_t(row[2].AsInteger());
    return true;
  });
  return postings;
}

struct BuildStats {
  const char* cartridge = "";
  uint64_t rows = 0;
  Spread<double> ms{};
  uint64_t entries_written = 0;
  uint64_t nodes_read = 0;
  size_t query_rows = 0;
  uint64_t postings = 0;
  double heap_bytes_per_entry = 0;
  double heap_bytes_per_posting = 0;
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
    stats.postings = c.block_iot.empty() ? stats.entries_written
                                         : BlockPostings(conn, c.block_iot);
    if (rep == 0 && stats.postings > 0) {
      const double heap = double(heap_after) - double(heap_before);
      stats.heap_bytes_per_entry = heap / stats.entries_written;
      stats.heap_bytes_per_posting = heap / stats.postings;
    }
    stats.nodes_read = delta.index_nodes_read;
    stats.query_rows = conn.MustExecute(c.query).rows.size();
    conn.MustExecute("DROP INDEX bx");
  }
  stats.ms = SpreadOf(ms);
  std::printf(
      "%-12s %8llu | %10.1f %10.1f %10.1f | %12llu %12llu | %7zu | %10llu "
      "%8.1f %8.1f\n",
      stats.cartridge, (unsigned long long)stats.rows, stats.ms.median,
      stats.ms.min, stats.ms.max, (unsigned long long)stats.entries_written,
      (unsigned long long)stats.nodes_read, stats.query_rows,
      (unsigned long long)stats.postings, stats.heap_bytes_per_entry,
      stats.heap_bytes_per_posting);
  return stats;
}

}  // namespace

int main() {
  Header("Index build: one ODCIIndexCreate per cartridge, parallelism 1");
  std::printf("%-12s %8s | %10s %10s %10s | %12s %12s | %7s | %10s %8s %8s\n",
              "cartridge", "rows", "median_ms", "min_ms", "max_ms",
              "entries_wr", "nodes_read", "q_rows", "postings", "heap_B/e",
              "heap_B/p");
  std::vector<BuildStats> results;
  std::vector<uint64_t> text_sizes{10000, 20000, 50000};
  // At 60 documents a term has about two postings, so per-posting heap
  // mostly shows the block row's fixed cost.  CI's heap gate reads the
  // 2,000-document build, whose blocks hold many postings.
  if (SmokeMode()) text_sizes = {60, 2000};
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
               "SELECT id FROM docs WHERE Contains(body, 'w3 AND w11')",
               text::PostingTableName("bx")}));
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
               "SDO_GEOMETRY(2000,2000,4000,4000), 'mask=ANYINTERACT')",
               ""}));
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
               "'globalcolor=1', 1.5)",
               ""}));
  }

  {
    const uint64_t rows = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    conn.MustExecute("CREATE TABLE nums (id INTEGER, grp INTEGER)");
    for (uint64_t id = 0; id < rows;) {
      std::string sql = "INSERT INTO nums VALUES ";
      for (uint64_t end = std::min(rows, id + 500); id < end; ++id) {
        sql += (sql.back() == ' ' ? "(" : ", (") + std::to_string(id) + ", " +
               std::to_string(id % 20) + ")";
      }
      conn.MustExecute(sql);
    }
    results.push_back(Measure(conn, {"btree_unique", rows,
                                     "CREATE INDEX bx ON nums(id)",
                                     "SELECT id FROM nums WHERE id = 7", ""}));
    results.push_back(Measure(conn, {"btree_20_vals", rows,
                                     "CREATE INDEX bx ON nums(grp)",
                                     "SELECT id FROM nums WHERE grp = 7", ""}));
  }

  std::string builds = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const BuildStats& s = results[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"cartridge\": \"%s\", \"rows\": %llu, \"parallelism\": 1, "
        "\"reps\": %d, \"build_ms_median\": %.1f, \"build_ms_min\": %.1f, "
        "\"build_ms_max\": %.1f, \"index_entries_written\": %llu, "
        "\"index_nodes_read\": %llu, \"query_rows\": %zu, "
        "\"postings\": %llu, \"heap_bytes_per_entry\": %.1f, "
        "\"heap_bytes_per_posting\": %.1f}",
        i == 0 ? "" : ",", s.cartridge, (unsigned long long)s.rows,
        kReps, s.ms.median, s.ms.min, s.ms.max,
        (unsigned long long)s.entries_written,
        (unsigned long long)s.nodes_read, s.query_rows,
        (unsigned long long)s.postings, s.heap_bytes_per_entry,
        s.heap_bytes_per_posting);
    builds += buf;
  }
  builds += "\n  ]";
  JsonReport report("text_build");
  report.AddRaw("builds", builds);
  return report.Write() ? 0 : 1;
}
