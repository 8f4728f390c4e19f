// Experiment E2 (§3.2.1): "Improved response time because the row
// satisfying the text predicate can be identified on demand" — time to
// the first K rows for three strategies over the same index:
//   incremental  — ODCIIndexFetch computes candidates a batch at a time,
//   precompute   — ODCIIndexStart computes everything, Fetch iterates,
//   legacy       — pre-8i two-step plan; nothing is returned until the
//                  whole temp table is built.
// A run that finds fewer than K rows adds no sample (n counts the rest).
//
// Shape check: incremental time-to-first-row is flat and small; precompute
// pays the full evaluation at Start; the legacy plan pays full evaluation
// plus temp-table materialization before row 1.

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/text/legacy_text.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

const char* const kQuery = "w2";  // common single term => large result set

// Times one domain-index scan until K rowids are fetched.
void FirstK(Database* db, const std::string& index, size_t k,
            Series* series) {
  series->Start();
  OdciPredInfo pred =
      OdciPredInfo::BooleanTrue("Contains", {Value::Varchar(kQuery)});
  auto scan = db->domains().StartScan(index, pred);
  if (!scan.ok()) return;
  OdciFetchBatch batch;
  size_t got = 0;
  while (got < k && (*scan)->NextBatch(64, &batch).ok()) {
    got += batch.rids.size();
    if (batch.end_of_scan() || batch.last) break;
  }
  if (got >= k) series->Stop();
  (void)(*scan)->Close();
}

// Legacy: times the plan until the K-th row arrives at the callback.
void LegacyFirstK(Database* db, size_t k, Series* series) {
  size_t got = 0;
  series->Start();
  (void)text::LegacyTextQuery(db, "t_pre", kQuery, [&](RowId, const Row&) {
    if (++got == k) series->Stop();
  });
}

}  // namespace

int main() {
  const uint64_t kDocs = Scaled(30000, 200);
  Database db;
  Connection conn(&db);
  if (!text::InstallTextCartridge(&conn).ok() ||
      !workload::BuildTextTable(&conn, "docs", kDocs, 60, 5000, 0.9, 7)
           .ok()) {
    return 1;
  }
  // Two indexes over the same column, one per scan strategy.
  conn.MustExecute(
      "CREATE INDEX t_inc ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Mode incremental')");
  conn.MustExecute(
      "CREATE INDEX t_pre ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Mode precompute')");

  JsonReport report("text_first_row",
                    "E2: time to first K rows by scan strategy");
  report.Add("docs", kDocs);
  report.Add("query", kQuery);
  Table& table = report.AddTimedTable("first_k", {"k", "strategy"});
  Series warm;  // one untimed pass, so caches fill before timing
  FirstK(&db, "t_inc", 1, &warm);
  FirstK(&db, "t_pre", 1, &warm);
  LegacyFirstK(&db, 1, &warm);
  for (size_t k : {1, 10, 100, 1000, 10000}) {
    Series inc, pre, legacy;
    for (size_t rep = 0; rep < Repetitions(); ++rep) {
      FirstK(&db, "t_inc", k, &inc);
      FirstK(&db, "t_pre", k, &pre);
      LegacyFirstK(&db, k, &legacy);
    }
    table.Add({k, "incremental"}, inc);
    table.Add({k, "precompute"}, pre);
    table.Add({k, "legacy"}, legacy);
  }
  return report.Write() ? 0 : 1;
}
