// Experiment E10 (ablation, §4): the cost of the extensibility indirection.
// The same B-tree workload through (a) the native B-tree access method and
// (b) a B-tree re-implemented as a domain index whose routines reach index
// data through server callbacks.  The paper argues SQL-callback-level
// integration costs something versus [Sto86]-style low-level integration
// but stays practical thanks to batch interfaces.
//
// Shape check: the domain-index B-tree pays a constant-factor
// dispatch/callback overhead over the native B-tree but scales the same —
// the framework's practicality claim (§4).

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "common/rng.h"
#include "engine/connection.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

int main() {
  JsonReport report("framework_overhead",
                    "E10: native B-tree vs domain-index B-tree");
  Table& table = report.AddTimedTable(
      "ops", {"rows", "operation", "count", "path"});
  std::vector<uint64_t> sizes{10000, 100000};
  if (SmokeMode()) sizes = {500};
  for (uint64_t n : sizes) {
    Database db;
    Connection conn(&db);
    if (!dbt::InstallDomainBtreeCartridge(&conn).ok()) return 1;
    conn.MustExecute("CREATE TABLE t (id INTEGER, v INTEGER)");
    for (uint64_t i = 0; i < n; ++i) {
      (void)db.InsertRow(
          "t", {Value::Integer(int64_t(i)), Value::Integer(int64_t(i))},
          nullptr);
    }
    conn.MustExecute("CREATE INDEX t_native ON t(v)");
    conn.MustExecute(
        "CREATE INDEX t_domain ON t(v) INDEXTYPE IS DomainBtreeType");
    conn.MustExecute("ANALYZE t");

    // The planner picks the cheaper path; native wins on cost, so the
    // domain path is exercised via the DEq/DBetween operators (only the
    // domain index supports them) and the native path via = and a range.
    Rng rng(n);
    const int kPoints = int(Scaled(200, 10));
    const int kRanges = 50;
    const int64_t width = int64_t(n / 100);
    auto points = [&](const std::string& sql, const std::string& close) {
      return [&, sql, close] {
        for (int q = 0; q < kPoints; ++q) {
          conn.MustExecute(sql + std::to_string(rng.Uniform(n)) + close);
        }
      };
    };
    auto ranges = [&](const std::string& low, const std::string& high,
                      const std::string& close) {
      return [&, low, high, close] {
        for (int q = 0; q < kRanges; ++q) {
          int64_t v = int64_t(rng.Uniform(n - uint64_t(width)));
          conn.MustExecute(low + std::to_string(v) + high +
                           std::to_string(v + width) + close);
        }
      };
    };
    // Maintenance: 1000 single-row inserts maintaining both indexes.
    int64_t next_id = int64_t(n);
    auto inserts = [&] {
      for (int i = 0; i < 1000; ++i) {
        (void)db.InsertRow("t",
                           {Value::Integer(next_id++),
                            Value::Integer(int64_t(rng.Uniform(n)))},
                           nullptr);
      }
    };
    std::vector<Series> times = TimeAlternating({
        points("SELECT COUNT(*) FROM t WHERE v = ", ""),
        points("SELECT COUNT(*) FROM t WHERE DEq(v, ", ")"),
        ranges("SELECT COUNT(*) FROM t WHERE v >= ", " AND v <= ", ""),
        ranges("SELECT COUNT(*) FROM t WHERE DBetween(v, ", ", ", ")"),
        inserts,
    });
    table.Add({n, "point", kPoints, "native"}, times[0]);
    table.Add({n, "point", kPoints, "domain"}, times[1]);
    table.Add({n, "range_1pct", kRanges, "native"}, times[2]);
    table.Add({n, "range_1pct", kRanges, "domain"}, times[3]);
    table.Add({n, "insert", 1000, "both"}, times[4]);
  }
  return report.Write() ? 0 : 1;
}
