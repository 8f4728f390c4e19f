// Experiment E7 (§2.5): "batch interfaces are provided to reduce
// interactions between application and server code. For example, the
// ODCIIndexFetch() routine can return a single or a batch of row
// identifiers."  Sweep the fetch batch size and report callback
// round-trips (fetch_calls) and wall time for a large result set.
//
// Shape check: round-trips fall ~linearly with batch size and wall time
// improves until dispatch overhead stops dominating.

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

int main() {
  const uint64_t kDocs = Scaled(30000, 200);
  Database db;
  Connection conn(&db);
  if (!text::InstallTextCartridge(&conn).ok() ||
      !workload::BuildTextTable(&conn, "docs", kDocs, 60, 5000, 0.9, 5)
           .ok()) {
    return 1;
  }
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Mode incremental')");  // per-Fetch work is real
  conn.MustExecute("ANALYZE docs");

  // Drive the scan directly through the framework (no parser/optimizer
  // noise): start, drain in batches of the configured size, close.
  OdciPredInfo pred =
      OdciPredInfo::BooleanTrue("Contains", {Value::Varchar("w2")});
  const std::vector<size_t> batches = {1, 4, 16, 64, 256, 1024};
  std::vector<size_t> rows(batches.size());
  std::vector<std::function<void()>> runs;
  for (size_t i = 0; i < batches.size(); ++i) {
    runs.push_back([&, i] {
      auto scan = db.domains().StartScan("dtext", pred);
      if (!scan.ok()) return;
      OdciFetchBatch out;
      rows[i] = 0;
      while ((*scan)->NextBatch(batches[i], &out).ok()) {
        rows[i] += out.rids.size();
        if (out.end_of_scan() || out.last) break;
      }
      (void)(*scan)->Close();
    });
  }
  std::vector<Series> times = TimeAlternating(runs);

  JsonReport report("batch_fetch",
                    "E7: ODCIIndexFetch batch size vs callback round-trips");
  report.Add("docs", kDocs);
  Table& table =
      report.AddTimedTable("batches", {"batch", "rows", "fetch_calls"});
  for (size_t i = 0; i < batches.size(); ++i) {
    table.Add({batches[i], rows[i], times[i].work().odci_fetch_calls},
              times[i]);
  }
  return report.Write() ? 0 : 1;
}
