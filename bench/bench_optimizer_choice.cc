// Experiment E6 (§2.4.2): the paper's optimizer example —
//   SELECT * FROM Employees WHERE Contains(resume, 'Oracle') AND id = 100
// The cost-based optimizer weighs the domain-index scan (priced by
// ODCIStatsSelectivity/IndexCost) against a B-tree range on id and a
// sequential scan, per combination of text selectivity x id-range width.
// The crossover: selective text => domain index; selective id => B-tree
// with Contains evaluated functionally on the survivors.
//
// Shape check: top-left (common term, narrow id range) chooses the B-tree
// and applies Contains functionally; bottom-right (rare term, wide range)
// chooses the domain index — the paper's §2.4.2 cost-based decision.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

std::string ChosenPath(const std::string& explain) {
  size_t star = explain.find("  * ");
  if (star == std::string::npos) return "?";
  size_t end = explain.find(" cost=", star);
  std::string path = explain.substr(star + 4, end - star - 4);
  if (path.find("DomainIndex") != std::string::npos) return "DOMAIN";
  if (path.find("BTREE") != std::string::npos) return "BTREE";
  if (path.find("SeqScan") != std::string::npos) return "SEQSCAN";
  return path;
}

}  // namespace

int main() {
  const uint64_t kDocs = Scaled(20000, 200);
  Database db;
  Connection conn(&db);
  if (!text::InstallTextCartridge(&conn).ok() ||
      !workload::BuildTextTable(&conn, "docs", kDocs, 60, 5000, 0.9, 3)
           .ok()) {
    return 1;
  }
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType");
  conn.MustExecute("CREATE INDEX did ON docs(id)");
  conn.MustExecute("ANALYZE docs");

  // Text terms by document frequency (Zipf rank): w1 ~ everywhere,
  // w2000 ~ rare.  id <= W widths sweep the B-tree selectivity.
  struct Query {
    const char* term;
    int64_t width;
    std::string sql;
    size_t rows = 0;
  };
  std::vector<Query> queries;
  for (const char* term : {"w1", "w30", "w300", "w2000"}) {
    for (int64_t width : {20, 200, 2000, 20000}) {
      queries.push_back({term, width,
                         std::string("SELECT id FROM docs WHERE "
                                     "Contains(body, '") +
                             term + "') AND id <= " + std::to_string(width)});
    }
  }
  std::vector<std::function<void()>> runs;
  for (size_t i = 0; i < queries.size(); ++i) {
    runs.push_back([&, i] {
      queries[i].rows = conn.MustExecute(queries[i].sql).rows.size();
    });
  }
  std::vector<Series> times = TimeAlternating(runs);

  JsonReport report("optimizer_choice",
                    "E6: optimizer choice — Contains(body, T) AND id <= W");
  report.Add("docs", kDocs);
  Table& table =
      report.AddTimedTable("choices", {"term", "id_max", "path", "rows"});
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    table.Add({q.term, q.width,
               ChosenPath(conn.MustExecute("EXPLAIN " + q.sql).message),
               q.rows},
              times[i]);
  }
  return report.Write() ? 0 : 1;
}
