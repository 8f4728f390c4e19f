// extidx_perfbench: the repository benchmark.  One workload per process,
// one client session in a closed loop; see README.md for the metrics.
//
//   extidx_perfbench --workload <text_search|text_ingest|rolling_window>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <spans.csv>] [--tiny]
//
// Prints a human-readable report, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and every metric it measured.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

// Taken during static initialisation, as close to process start as the
// program can observe; set-up time of the first repetition counts from here.
const int64_t kProcessStartNs = NowNs();

// Set-up repetitions of the untraced run; setup_s is their median.
constexpr int kSetupRepetitions = 4;

// A percentile is reported only with at least this many samples.
constexpr size_t kP99MinSamples = 1000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      o->tiny = true;
    } else if (a == "--workload" && (v = next())) {
      o->workload = v;
      have_workload = true;
    } else if (a == "--seed" && (v = next())) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      o->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next())) {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out" && (v = next())) {
      o->trace_out = v;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", a.c_str());
      return false;
    }
  }
  return have_workload && o->seconds > 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Phase {
  Measurements m;
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  std::vector<double> window_ops_per_s;
  bool step_failed = false;
};

// Throughput is taken per window of this much measured time, and the median
// window is reported, so a few seconds of interference from other tenants
// of the machine do not move it.
constexpr int64_t kWindowNs = 1000000000;

// Runs the closed loop for `seconds` of measured time: wall time minus
// result checks, shadow upkeep and the index build/drop cycle, which extend
// the phase.  Throughput counts every timed statement outside that cycle.
Phase RunPhase(Session& s, Workload& w, double seconds) {
  s.m() = Measurements{};
  s.m().counted_limit = w.CountedStatements();
  s.set_measuring(true);
  const Measurements& m = s.m();
  int64_t start = NowNs();
  auto measured_ns = [&] {
    return NowNs() - start - m.excluded_ns - m.cycle_ns;
  };
  auto ops = [&] {
    return m.attempted - m.latency_ms[int(OpKind::kIndexBuild)].size() -
           m.latency_ms[int(OpKind::kIndexDrop)].size();
  };
  int64_t length = int64_t(seconds * 1e9);
  int64_t window_start = 0;
  uint64_t window_ops = 0;
  Phase phase;
  while (measured_ns() < length) {
    exi::Status st = w.Step(s);
    if (!st.ok()) {
      std::fprintf(stderr, "workload step failed: %s\n",
                   st.ToString().c_str());
      phase.step_failed = true;
      break;
    }
    int64_t now = measured_ns();
    if (now - window_start >= kWindowNs) {
      phase.window_ops_per_s.push_back(double(ops() - window_ops) /
                                       (double(now - window_start) / 1e9));
      window_start = now;
      window_ops = ops();
    }
  }
  double measured_s = double(measured_ns()) / 1e9;
  phase.wall_s = double(NowNs() - start) / 1e9;
  s.set_measuring(false);
  phase.m = s.m();
  phase.ops_per_s = !phase.window_ops_per_s.empty()
                        ? Median(phase.window_ops_per_s)
                        : double(ops()) / measured_s;
  return phase;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void AddLatency(std::vector<Metric>* out, const Measurements& m, OpKind kind,
                const std::string& prefix) {
  const std::vector<double>& v = m.latency_ms[int(kind)];
  if (v.empty()) return;
  out->push_back({prefix + "_p50_ms", Percentile(v, 0.50), "ms"});
  if (kind == OpKind::kQuery) {
    out->push_back({prefix + "_p90_ms", Percentile(v, 0.90), "ms"});
  }
  if (v.size() >= kP99MinSamples) {
    out->push_back({prefix + "_p99_ms", Percentile(v, 0.99), "ms"});
  }
}

std::vector<Metric> EndToEnd(const Phase& p, double setup_s,
                             const std::vector<double>& builds) {
  const Measurements& m = p.m;
  std::vector<Metric> out;
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"ops_per_s", p.ops_per_s, "1/s"});
  AddLatency(&out, m, OpKind::kQuery, "query");
  AddLatency(&out, m, OpKind::kDml, "dml");
  AddLatency(&out, m, OpKind::kCommit, "commit");
  AddLatency(&out, m, OpKind::kRollback, "rollback");
  if (!builds.empty()) out.push_back({"index_build_s", Median(builds), "s"});
  const auto& adds = m.latency_ms[int(OpKind::kPartitionAdd)];
  const auto& drops = m.latency_ms[int(OpKind::kPartitionDrop)];
  if (!adds.empty() && adds.size() == drops.size()) {
    std::vector<double> pairs;
    for (size_t i = 0; i < adds.size(); ++i) pairs.push_back(adds[i] + drops[i]);
    out.push_back({"partition_ddl_p50_ms", Percentile(pairs, 0.5), "ms"});
  }
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // Work per statement over the workload's counted statements, as the
  // engine's storage counters (V$STORAGE_METRICS) show it.
  const exi::StorageMetrics& c = m.counted;
  double n = double(m.counted_statements);
  out.push_back({"logical_reads_per_stmt",
                 Ratio(double(c.table_rows_read + c.index_nodes_read), n),
                 "count"});
  out.push_back({"writes_per_stmt",
                 Ratio(double(c.table_rows_written + c.table_rows_deleted +
                              c.index_entries_written),
                       n),
                 "count"});
  out.push_back({"odci_calls_per_stmt",
                 Ratio(double(c.odci_start_calls + c.odci_fetch_calls +
                              c.odci_close_calls + c.odci_maintenance_calls),
                       n),
                 "count"});
  return out;
}

// Per-layer split of the traced phase, from the spans and the kit counters.
std::vector<Metric> PerLayer(const Phase& untraced, const Phase& traced,
                             TraceKit& kit, const std::vector<Span>& spans,
                             uint64_t cache_hits, uint64_t cache_misses) {
  const Measurements& m = traced.m;
  double queries = double(m.latency_ms[int(OpKind::kQuery)].size());
  double statements = double(m.attempted);

  std::map<std::string, std::pair<uint64_t, double>> by_name;  // n, us
  struct Root {
    double us = 0.0;
    double child_us = 0.0;
  };
  std::unordered_map<uint32_t, Root> roots;
  for (const Span& sp : spans) {
    double us = double(sp.end_ns - sp.start_ns) / 1e3;
    auto& [n, total] = by_name[sp.name];
    ++n;
    total += us;
    if (sp.parent == 0 && std::strcmp(sp.name, "statement") == 0) {
      roots[sp.id].us = us;
    }
  }
  for (const Span& sp : spans) {
    auto it = sp.parent != 0 ? roots.find(sp.parent) : roots.end();
    if (it != roots.end()) {
      it->second.child_us += double(sp.end_ns - sp.start_ns) / 1e3;
    }
  }
  double covered = 0.0, wall = 0.0, covered_90 = 0.0;
  for (const auto& [id, r] : roots) {
    covered += r.child_us;
    wall += r.us;
    if (r.child_us >= 0.9 * r.us) ++covered_90;
  }
  auto span_us = [&](const char* name) { return by_name[name].second; };
  auto span_mean = [&](const char* name) {
    return Ratio(by_name[name].second, double(by_name[name].first));
  };

  std::vector<Metric> out;
  out.push_back({"sql.parse_us", Ratio(span_us("sql.parse"), statements), "us"});
  out.push_back({"optimizer.plan_us", Ratio(span_us("optimizer.plan"), queries),
                 "us"});
  const auto& sel = kit.routine(Routine::kSelectivity);
  const auto& cost = kit.routine(Routine::kIndexCost);
  out.push_back({"optimizer.odci_stats_us",
                 Ratio(double(sel.ns + cost.ns) / 1e3, queries), "us"});
  out.push_back({"optimizer.odci_stats_calls_per_query",
                 Ratio(double(sel.calls + cost.calls), queries), "count"});
  out.push_back({"optimizer.stats_cache_hit_ratio",
                 Ratio(double(cache_hits), double(cache_hits + cache_misses)),
                 "ratio"});
  out.push_back({"optimizer.partitions_pruned_ratio",
                 Ratio(double(m.storage.partitions_pruned),
                       double(m.storage.partitions_pruned +
                              m.storage.partitions_scanned)),
                 "ratio"});
  out.push_back({"exec.open_us", Ratio(span_us("exec.open"), queries), "us"});
  out.push_back({"exec.next_us", Ratio(span_us("exec.next"), queries), "us"});
  out.push_back({"exec.close_us", Ratio(span_us("exec.close"), queries), "us"});
  out.push_back({"exec.rows_read_per_row_out",
                 Ratio(double(m.query_rows_read), double(m.query_rows_out)),
                 "count"});

  // Call counts are per traced statement, like the storage counts, so they
  // show work per op rather than throughput; times are means per call.
  for (Routine r : {Routine::kStart, Routine::kFetch, Routine::kClose,
                    Routine::kCreate, Routine::kCreateStorage, Routine::kInsert,
                    Routine::kBatchInsert, Routine::kUpdate, Routine::kDelete,
                    Routine::kDrop}) {
    const auto& c = kit.routine(r);
    std::string base = std::string("core.odci.") + RoutineName(r);
    double calls = double(c.calls);
    out.push_back({base + ".calls", Ratio(calls, statements), "count"});
    out.push_back({base + ".us", Ratio(double(c.ns) / 1e3, calls), "us"});
    out.push_back({base + ".self_us",
                   Ratio(double(c.ns - c.callback_ns) / 1e3, calls), "us"});
  }
  out.push_back({"core.fetch_rows_per_call",
                 Ratio(double(kit.routine(Routine::kFetch).rows),
                       double(kit.routine(Routine::kFetch).calls)),
                 "count"});
  out.push_back({"core.batch_width",
                 Ratio(double(kit.routine(Routine::kBatchInsert).rows),
                       double(kit.routine(Routine::kBatchInsert).calls)),
                 "count"});

  for (Callback cb : {Callback::kIotUpsert, Callback::kIotGet,
                      Callback::kIotDelete, Callback::kIotScanPrefix,
                      Callback::kScanBaseTable, Callback::kGetBaseTableRow}) {
    const auto& c = kit.callback(cb);
    std::string base = std::string("callback.") + CallbackName(cb);
    out.push_back({base + ".calls", Ratio(double(c.calls), statements),
                   "count"});
    out.push_back({base + ".us", Ratio(double(c.ns) / 1e3, double(c.calls)),
                   "us"});
  }
  const auto& prefix = kit.callback(Callback::kIotScanPrefix);
  out.push_back({"callback.iot_scan_prefix.rows",
                 Ratio(double(prefix.rows), double(prefix.calls)), "count"});
  out.push_back({"callback.per_doc_build",
                 Ratio(double(kit.build_callbacks), double(kit.build_docs)),
                 "count"});

  out.push_back({"storage.table_rows_read",
                 Ratio(double(m.storage.table_rows_read), statements),
                 "count"});
  out.push_back({"storage.table_rows_written",
                 Ratio(double(m.storage.table_rows_written), statements),
                 "count"});
  out.push_back({"storage.index_nodes_read",
                 Ratio(double(m.storage.index_nodes_read), statements),
                 "count"});

  out.push_back({"txn.commit_us", span_mean("txn.commit"), "us"});
  out.push_back({"txn.rollback_us", span_mean("txn.rollback"), "us"});
  out.push_back({"catalog.partition_add_us",
                 span_mean("catalog.partition_add"), "us"});
  out.push_back({"catalog.partition_drop_us",
                 span_mean("catalog.partition_drop"), "us"});

  out.push_back({"trace.ops_per_s_untraced", untraced.ops_per_s, "1/s"});
  out.push_back({"trace.ops_per_s_traced", traced.ops_per_s, "1/s"});
  out.push_back({"trace.overhead_pct",
                 100.0 * Ratio(untraced.ops_per_s - traced.ops_per_s,
                               untraced.ops_per_s),
                 "%"});
  out.push_back({"trace.span_coverage_pct", 100.0 * Ratio(covered, wall), "%"});
  out.push_back({"trace.statements_covered_90_pct",
                 100.0 * Ratio(covered_90, double(roots.size())), "%"});
  out.push_back({"trace.spans", double(spans.size()), "count"});
  out.push_back({"trace.spans_dropped", double(kit.dropped_spans()), "count"});
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "stmt,span,parent,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%u,%u,%s,%lld,%lld\n", (unsigned long long)s.stmt,
                 s.id, s.parent, s.name, (long long)(s.start_ns - origin_ns),
                 (long long)(s.end_ns - origin_ns));
  }
  std::fclose(f);
}

void PrintLatencies(const char* label, const Measurements& m) {
  std::printf("%s samples:", label);
  for (int k = 0; k < int(OpKind::kCount); ++k) {
    if (!m.latency_ms[k].empty()) {
      std::printf(" %s=%zu", OpKindName(OpKind(k)), m.latency_ms[k].size());
    }
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: extidx_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] [--tiny]\n");
    return 2;
  }
  if (MakeWorkload(opts.workload, opts.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    return 2;
  }

  TraceKit kit;
  TraceKit* kit_ptr = opts.trace ? &kit : nullptr;
  int reps = opts.trace || opts.tiny ? 1 : kSetupRepetitions;
  std::vector<double> setup_s;
  std::vector<double> builds;
  uint64_t setup_checks = 0, setup_failed = 0;
  std::unique_ptr<Session> session;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < reps; ++rep) {
    workload.reset();
    session.reset();
    int64_t t0 = rep == 0 ? kProcessStartNs : NowNs();
    session = std::make_unique<Session>(opts, kit_ptr);
    workload = MakeWorkload(opts.workload, opts.seed);
    exi::Status st = workload->Setup(*session);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(double(NowNs() - t0) / 1e9);
    const Measurements& m = session->m();
    setup_checks += m.checks;
    setup_failed += m.errors + m.wrong + m.trace_mismatches;
    for (double b : session->text_index_builds()) builds.push_back(b);
    session->text_index_builds().clear();
  }

  std::vector<Phase> phases;
  std::vector<Metric> metrics;
  phases.push_back(RunPhase(*session, *workload, opts.seconds));
  for (double b : session->text_index_builds()) builds.push_back(b);
  if (opts.trace) {
    // Second phase on the same data with recording on; the first phase is
    // the untraced baseline the overhead is measured against.
    uint64_t hits0 = session->db().planner_stats().hits();
    uint64_t misses0 = session->db().planner_stats().misses();
    int64_t origin = NowNs();
    kit.set_enabled(true);
    phases.push_back(RunPhase(*session, *workload, opts.seconds));
    kit.set_enabled(false);
    std::vector<Span> spans = kit.TakeSpans();
    metrics = PerLayer(phases[0], phases[1], kit, spans,
                       session->db().planner_stats().hits() - hits0,
                       session->db().planner_stats().misses() - misses0);
    if (!opts.trace_out.empty()) WriteSpans(opts.trace_out, spans, origin);
  } else {
    metrics = EndToEnd(phases[0], Median(setup_s), builds);
  }

  uint64_t attempted = 0, failed = setup_failed, checks = setup_checks;
  bool step_failed = false;
  for (const Phase& p : phases) {
    attempted += p.m.attempted;
    failed += p.m.errors + p.m.wrong + p.m.trace_mismatches;
    checks += p.m.checks;
    step_failed = step_failed || p.step_failed;
    PrintLatencies(opts.trace && &p == &phases.back() ? "traced" : "timed",
                   p.m);
    std::printf("phase: wall=%.3fs ops/s=%.2f counted=%llu checks=%llu "
                "wrong=%llu errors=%llu trace_mismatches=%llu\n",
                p.wall_s, p.ops_per_s,
                (unsigned long long)p.m.counted_statements,
                (unsigned long long)p.m.checks,
                (unsigned long long)p.m.wrong, (unsigned long long)p.m.errors,
                (unsigned long long)p.m.trace_mismatches);
    std::printf("ops/s per window:");
    for (double r : p.window_ops_per_s) std::printf(" %.1f", r);
    std::printf("\n");
  }
  if (!opts.trace) {
    metrics.push_back({"error_rate", Ratio(double(failed), double(attempted)),
                       "ratio"});
  }
  std::printf("setup_s per repetition:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\ntext index builds (s):");
  for (double b : builds) std::printf(" %.3f", b);
  std::printf("\n");
  for (const Metric& mt : metrics) {
    std::printf("%-40s %14.4f %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str());
  }

  bool correct = failed == 0 && !step_failed && checks > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
