// Experiment E8 (§2.2.3): Return State vs Return Handle scan contexts.
// Return State copies the serialized remaining result set in and out of
// every ODCIIndexFetch invocation; Return Handle passes 8 bytes and keeps
// the workspace server-side.  The paper: "If the state to be maintained
// is small, it can be returned ... as the output object argument.  If
// large, ... a handle to the workspace can be returned."
//
// Shape check: for small result sets the two mechanisms tie; as the result
// set grows, Return State degrades quadratically (each fetch copies the
// whole remaining state) — the paper's rule of thumb.

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
  db.set_fetch_batch_size(32);  // more fetch calls => more state copies
  if (!text::InstallTextCartridge(&conn).ok() ||
      !workload::BuildTextTable(&conn, "docs", kDocs, 60, 5000, 0.9, 9)
           .ok()) {
    return 1;
  }
  conn.MustExecute(
      "CREATE INDEX t_handle ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':ContextMode handle')");
  conn.MustExecute(
      "CREATE INDEX t_state ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':ContextMode state')");
  conn.MustExecute("ANALYZE docs");

  JsonReport report("scan_context",
                    "E8: scan context — Return State vs Return Handle");
  report.Add("docs", kDocs);
  Table& table = report.AddTimedTable("scans", {"term", "context", "rows"});
  // Result-set size sweep by term rank (Zipfian document frequency).  Both
  // indexes support the query, so each is scanned directly through the
  // DomainIndexManager rather than through the planner's choice.
  for (const char* term : {"w2000", "w200", "w20", "w2", "w0"}) {
    OdciPredInfo pred =
        OdciPredInfo::BooleanTrue("Contains", {Value::Varchar(term)});
    const char* contexts[] = {"handle", "state"};
    size_t rows[2] = {0, 0};
    std::vector<std::function<void()>> runs;
    for (int c = 0; c < 2; ++c) {
      runs.push_back([&, c] {
        auto scan =
            db.domains().StartScan(std::string("t_") + contexts[c], pred);
        if (!scan.ok()) return;
        OdciFetchBatch batch;
        rows[c] = 0;
        while ((*scan)->NextBatch(32, &batch).ok()) {
          rows[c] += batch.rids.size();
          if (batch.end_of_scan() || batch.last) break;
        }
        (void)(*scan)->Close();
      });
    }
    std::vector<Series> times = TimeAlternating(runs);
    if (rows[0] != rows[1]) {
      std::printf("RESULT MISMATCH for %s\n", term);
      return 1;
    }
    for (int c = 0; c < 2; ++c) {
      table.Add({term, contexts[c], rows[c]}, times[c]);
    }
  }
  return report.Write() ? 0 : 1;
}
