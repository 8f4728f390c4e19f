// Experiment E1 (§3.2.1): single-step pipelined domain-index execution vs
// the pre-8i two-step temp-table plan, over the same inverted index.
//
// Paper claims reproduced:
//   1) reduced I/O — no temporary result table (temp_rows_* = 0),
//   2) up to ~10X on search-intensive queries,
//   3) no extra join against a temp table.
//
// Both strategies run below the SQL layer (same place Oracle's kernel ran
// them): the pipelined side drives ODCIIndexStart/Fetch/Close through the
// DomainIndexManager; the legacy side materializes rowids into a real
// scratch table and joins back.  A third plan runs the pipelined query end
// to end through SQL (parser + optimizer included).
//
// Shape check: pipelined never touches a temp table; the legacy plan pays
// temp writes+reads proportional to the result set and a join back to the
// base table.

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/text/legacy_text.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

// Pipelined evaluation: domain-index scan + base row fetch per batch.
size_t RunPipelined(Database* db, const std::string& query) {
  OdciPredInfo pred =
      OdciPredInfo::BooleanTrue("Contains", {Value::Varchar(query)});
  auto scan = db->domains().StartScan("dtext", pred);
  if (!scan.ok()) return 0;
  HeapTable* heap = *db->catalog().GetTable("docs");
  OdciFetchBatch batch;
  size_t rows = 0;
  while ((*scan)->NextBatch(64, &batch).ok()) {
    for (RowId rid : batch.rids) rows += heap->Get(rid).ok();
    if (batch.end_of_scan() || batch.last) break;
  }
  (void)(*scan)->Close();
  return rows;
}

}  // namespace

int main() {
  JsonReport report("text_pipeline",
                    "E1: text query, pipelined (8i) vs two-step temp table");
  Table& table = report.AddTimedTable(
      "queries", {"docs", "query", "plan", "rows", "temp_rows_written"});
  std::vector<uint64_t> sizes{1000, 5000, 20000, 50000};
  if (SmokeMode()) sizes = {60};
  for (uint64_t docs : sizes) {
    Database db;
    Connection conn(&db);
    if (!text::InstallTextCartridge(&conn).ok() ||
        !workload::BuildTextTable(&conn, "docs", docs, 60, 5000, 0.9, docs)
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType");
    conn.MustExecute("ANALYZE docs");

    // Query-term selectivity sweep: common pair, medium pair, rare pair.
    for (const char* query : {"w3 AND w11", "w40 AND w90", "w400 OR w800"}) {
      size_t rows[3] = {0, 0, 0};
      const std::string sql =
          std::string("SELECT id FROM docs WHERE Contains(body, '") + query +
          "')";
      std::vector<Series> plans = TimeAlternating({
          [&] { rows[0] = RunPipelined(&db, query); },
          [&] {
            rows[1] = 0;
            (void)text::LegacyTextQuery(
                &db, "dtext", query, [&](RowId, const Row&) { ++rows[1]; });
          },
          [&] { rows[2] = conn.MustExecute(sql).rows.size(); },
      });
      const char* names[] = {"pipelined", "legacy", "sql_pipelined"};
      for (int p = 0; p < 3; ++p) {
        table.Add({docs, query, names[p], rows[p],
                   plans[p].work().temp_rows_written},
                  plans[p]);
      }
    }
  }
  return report.Write() ? 0 : 1;
}
