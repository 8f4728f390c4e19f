// Parallelism sweep: index build and domain-index join wall time at 1, 2,
// 4, and 8 workers, emitting BENCH_parallel.json.
//
// The container this runs in has a single CPU core, so raw CPU-bound
// callbacks cannot speed up with more threads.  Real cartridge callbacks
// are dominated by storage latency (the paper's cartridges sit on LOBs,
// external files, and disk-resident IOTs); we model that with bench-local
// "Slow" cartridge subclasses that sleep a fixed per-callback latency.
// The worker pool then genuinely hides that latency: N workers keep N
// callbacks' worth of storage waits in flight, which is exactly the effect
// the parallel build and windowed join probes exist to exploit.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

// Per-ODCIIndexInsert latency modeled for the build sweep, and
// per-ODCIIndexStart latency for the join-probe sweep.
constexpr int64_t kInsertLatencyUs = 150;
constexpr int64_t kProbeLatencyUs = 1500;

// Text cartridge whose per-document Insert carries storage latency.  The
// serial Create path is written per-row (like spatial/VIR) so that both
// serial and parallel builds pay the same per-document cost.
class SlowTextIndexMethods : public text::TextIndexMethods {
 public:
  Status Create(const OdciIndexInfo& info, ServerContext& ctx) override {
    EXI_RETURN_IF_ERROR(CreateStorage(info, ctx));
    int col = info.indexed_position();
    Status inner = Status::OK();
    EXI_RETURN_IF_ERROR(
        ctx.ScanBaseTable(info.table_name, [&](RowId rid, const Row& row) {
          inner = Insert(info, rid, row[col], ctx);
          return inner.ok();
        }));
    return inner;
  }

  Status Insert(const OdciIndexInfo& info, RowId rid, const Value& new_value,
                ServerContext& ctx) override {
    std::this_thread::sleep_for(std::chrono::microseconds(kInsertLatencyUs));
    return text::TextIndexMethods::Insert(info, rid, new_value, ctx);
  }
};

// Spatial cartridge whose Start (one probe of the inner index per outer
// row in a domain-index join) carries storage latency.
class SlowSpatialIndexMethods : public spatial::SpatialIndexMethods {
 public:
  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override {
    std::this_thread::sleep_for(std::chrono::microseconds(kProbeLatencyUs));
    return spatial::SpatialIndexMethods::Start(info, pred, ctx);
  }
};

double Speedup(const std::vector<std::pair<size_t, double>>& rows,
               size_t workers) {
  double base = 0, at = 0;
  for (const auto& [w, ms] : rows) {
    if (w == 1) base = ms;
    if (w == workers) at = ms;
  }
  return at > 0 ? base / at : 0.0;
}

// `rows` as a JSON array of {"workers": w, "ms": t} objects.
std::string MsArray(const std::vector<std::pair<size_t, double>>& rows) {
  std::string out = "[";
  for (const auto& [workers, ms] : rows) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s{\"workers\": %zu, \"ms\": %.1f}",
                  out.size() > 1 ? ", " : "", workers, ms);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main() {
  Header("Parallelism sweep: index build and domain-index join");
  const std::vector<size_t> kWorkers = {1, 2, 4, 8};

  // ---- parallel index build ----
  std::vector<std::pair<size_t, double>> build_ms;
  {
    Database db;
    Connection conn(&db);
    if (!text::InstallTextCartridge(&conn).ok()) return 1;
    if (!db.catalog()
             .implementations()
             .Register("SlowTextIndexMethods",
                       [] { return std::make_shared<SlowTextIndexMethods>(); },
                       [] { return std::make_shared<text::TextStats>(); })
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEXTYPE SlowTextIndexType FOR Contains(VARCHAR, VARCHAR) "
        "USING SlowTextIndexMethods");
    const uint64_t build_docs = Scaled(1200, 60);
    if (!workload::BuildTextTable(&conn, "docs", build_docs, 12, 400, 0.8, 5)
             .ok()) {
      return 1;
    }

    std::printf("build: %llu docs, %lldus per ODCIIndexInsert\n",
                (unsigned long long)build_docs,
                (long long)kInsertLatencyUs);
    std::printf("%10s | %12s %10s\n", "workers", "build_ms", "speedup");
    for (size_t w : kWorkers) {
      db.set_parallelism(w);
      Timer timer;
      conn.MustExecute(
          "CREATE INDEX docs_slow ON docs(body) "
          "INDEXTYPE IS SlowTextIndexType");
      double ms = timer.ElapsedMs();
      conn.MustExecute("DROP INDEX docs_slow");
      build_ms.emplace_back(w, ms);
      std::printf("%10zu | %12.1f %9.2fx\n", w, ms, Speedup(build_ms, w));
    }
  }

  // ---- parallel domain-index join ----
  std::vector<std::pair<size_t, double>> join_ms;
  size_t join_rows = 0;
  {
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok()) return 1;
    if (!db.catalog()
             .implementations()
             .Register(
                 "SlowSpatialIndexMethods",
                 [] { return std::make_shared<SlowSpatialIndexMethods>(); },
                 [] { return std::make_shared<spatial::SpatialStats>(); })
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEXTYPE SlowSpatialIndexType FOR Sdo_Relate("
        "OBJECT SDO_GEOMETRY, OBJECT SDO_GEOMETRY, VARCHAR) "
        "USING SlowSpatialIndexMethods");
    if (!workload::BuildSpatialTable(&conn, "roads", Scaled(120, 20), 500.0,
                                     7)
             .ok() ||
        !workload::BuildSpatialTable(&conn, "parks", Scaled(400, 40), 300.0,
                                     8)
             .ok()) {
      return 1;
    }
    conn.MustExecute(
        "CREATE INDEX p_tile ON parks(geometry) "
        "INDEXTYPE IS SlowSpatialIndexType");
    conn.MustExecute("ANALYZE roads");
    conn.MustExecute("ANALYZE parks");

    const std::string q =
        "SELECT r.gid, p.gid FROM roads r, parks p "
        "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
    conn.MustExecute(q);  // warm

    std::printf("\njoin: 120 outer rows, %lldus per inner-index probe\n",
                (long long)kProbeLatencyUs);
    std::printf("%10s | %12s %10s %10s\n", "workers", "join_ms", "rows",
                "speedup");
    for (size_t w : kWorkers) {
      db.set_parallelism(w);
      Timer timer;
      QueryResult r = conn.MustExecute(q);
      double ms = timer.ElapsedMs();
      join_rows = r.rows.size();
      join_ms.emplace_back(w, ms);
      std::printf("%10zu | %12.1f %10zu %9.2fx\n", w, ms, join_rows,
                  Speedup(join_ms, w));
    }
  }

  // ---- machine-readable output ----
  char note[256];
  std::snprintf(note, sizeof(note),
                "per-callback storage latency is simulated with sleeps "
                "(%lldus per build insert, %lldus per join probe) so worker "
                "threads hide latency rather than compete for CPU",
                (long long)kInsertLatencyUs, (long long)kProbeLatencyUs);
  JsonReport report("parallel");
  report.Add("note", note);
  report.AddRaw("build", MsArray(build_ms));
  report.AddRaw("join", MsArray(join_ms));
  report.Add("join_result_rows", uint64_t(join_rows));
  report.Add("build_speedup_4_workers", Speedup(build_ms, 4));
  report.Add("join_speedup_4_workers", Speedup(join_ms, 4));
  std::printf("\nbuild 4w speedup %.2fx, join 4w speedup %.2fx\n",
              Speedup(build_ms, 4), Speedup(join_ms, 4));
  if (!report.Write()) return 1;
  return 0;
}
