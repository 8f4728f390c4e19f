// Text index build: wall time of `CREATE INDEX ... INDEXTYPE IS
// TextIndexType` at 10k, 20k and 50k documents, each at session parallelism
// 1 (ODCIIndexCreate: tokenize the table, sort the postings, one sorted
// IotBulkLoad) and 4 (the split build: ODCIIndexInsert on pool workers into
// write buffers, merged into one sorted IotBulkLoad).  Emits
// BENCH_text_build.json.
//
// Each configuration is built `kReps` times on the same table (DROP INDEX
// in between) and reports the median, min and max build time.  Next to the
// times it records host-independent work counts for one build (IOT entries
// written, B+-tree nodes read) and the row count of an E1 query, which
// must agree across parallelism.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

constexpr int kReps = 3;
constexpr const char* kE1Query = "w3 AND w11";  // E1's common pair

struct BuildStats {
  uint64_t docs = 0;
  size_t parallelism = 0;
  std::vector<double> ms;  // one per repetition, sorted
  uint64_t entries_written = 0;
  uint64_t nodes_read = 0;
  size_t e1_rows = 0;
};

}  // namespace

int main() {
  Header("Text index build: sorted bulk load, serial vs split build");
  std::printf("%8s %5s | %10s %10s %10s | %12s %12s | %7s\n", "docs", "par",
              "median_ms", "min_ms", "max_ms", "entries_wr", "nodes_read",
              "e1_rows");
  std::vector<uint64_t> sizes{10000, 20000, 50000};
  if (SmokeMode()) sizes = {60};
  std::vector<BuildStats> results;
  for (uint64_t docs : sizes) {
    Database db;
    Connection conn(&db);
    if (!text::InstallTextCartridge(&conn).ok()) return 1;
    // The E1/E6 corpus: Zipf 0.9 over 5,000 words, 60 words a document.
    if (!workload::BuildTextTable(&conn, "docs", docs, 60, 5000, 0.9, docs)
             .ok()) {
      return 1;
    }
    for (size_t parallelism : {size_t(1), size_t(4)}) {
      db.set_parallelism(parallelism);
      BuildStats stats;
      stats.docs = docs;
      stats.parallelism = parallelism;
      for (int rep = 0; rep < kReps; ++rep) {
        MetricsWindow window;
        Timer timer;
        conn.MustExecute(
            "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType");
        stats.ms.push_back(timer.ElapsedMs());
        StorageMetrics delta = window.Delta();
        stats.entries_written = delta.index_entries_written;
        stats.nodes_read = delta.index_nodes_read;
        stats.e1_rows =
            conn.MustExecute(std::string("SELECT id FROM docs WHERE "
                                         "Contains(body, '") +
                             kE1Query + "')")
                .rows.size();
        conn.MustExecute("DROP INDEX dtext");
      }
      std::sort(stats.ms.begin(), stats.ms.end());
      std::printf("%8llu %5zu | %10.1f %10.1f %10.1f | %12llu %12llu | %7zu\n",
                  (unsigned long long)docs, parallelism,
                  stats.ms[stats.ms.size() / 2], stats.ms.front(),
                  stats.ms.back(), (unsigned long long)stats.entries_written,
                  (unsigned long long)stats.nodes_read, stats.e1_rows);
      results.push_back(std::move(stats));
    }
  }

  std::string builds = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const BuildStats& s = results[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"docs\": %llu, \"parallelism\": %zu, \"reps\": %zu, "
        "\"build_ms_median\": %.1f, \"build_ms_min\": %.1f, "
        "\"build_ms_max\": %.1f, \"index_entries_written\": %llu, "
        "\"index_nodes_read\": %llu, \"e1_query\": \"%s\", "
        "\"e1_rows\": %zu}",
        i == 0 ? "" : ",", (unsigned long long)s.docs, s.parallelism,
        s.ms.size(), s.ms[s.ms.size() / 2], s.ms.front(), s.ms.back(),
        (unsigned long long)s.entries_written,
        (unsigned long long)s.nodes_read, kE1Query, s.e1_rows);
    builds += buf;
  }
  builds += "\n  ]";
  JsonReport report("text_build");
  report.AddRaw("builds", builds);
  return report.Write() ? 0 : 1;
}
