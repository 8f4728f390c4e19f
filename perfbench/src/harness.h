// Closed-loop SQL session for the benchmark: times statements, keeps the
// result check, and (in the traced run) opens a span at each layer boundary.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/connection.h"
#include "engine/database.h"
#include "trace_kit.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        // self-test scale: a few hundred rows
  std::string trace_out;    // where the traced run writes its spans
};

// Statement kinds a workload sends; latencies are kept per kind.
enum class OpKind : int {
  kQuery,
  kDml,
  kBegin,
  kCommit,
  kRollback,
  kIndexBuild,
  kIndexDrop,
  kPartitionAdd,
  kPartitionDrop,
  kCount
};
const char* OpKindName(OpKind kind);

// Nearest-rank percentile (p in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

struct Measurements {
  std::vector<double> latency_ms[int(OpKind::kCount)];
  uint64_t attempted = 0;  // timed statements sent
  uint64_t errors = 0;     // timed or shadow statements that failed
  uint64_t checks = 0;     // queries compared with the shadow table
  uint64_t wrong = 0;      // checked queries whose rows differed
  uint64_t trace_mismatches = 0;  // traced rows != untraced rows
  int64_t excluded_ns = 0;  // result checks and shadow DML (not measured)
  int64_t cycle_ns = 0;     // index build/drop statements (not in ops/s)
  // Storage-counter deltas (GlobalMetrics) over timed statements.
  exi::StorageMetrics storage;
  uint64_t query_rows_read = 0;  // table_rows_read during queries
  uint64_t query_rows_out = 0;   // rows queries returned
  // The same deltas over the first `counted_limit` timed statements outside
  // the index build/drop cycle: the work counts of the end-to-end report.
  // A seed fixes them exactly, whatever the speed of the machine.
  uint64_t counted_limit = 0;
  exi::StorageMetrics counted;
  uint64_t counted_statements = 0;
};

class Session {
 public:
  // `kit` is null for the untraced run.
  Session(const Options& options, TraceKit* kit);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  exi::Database& db() { return db_; }
  exi::Connection& conn() { return conn_; }
  bool tiny() const { return options_.tiny; }
  TraceKit* kit() { return kit_; }
  Measurements& m() { return m_; }

  // Latencies are recorded only while measuring (the timed phase).
  void set_measuring(bool on) { measuring_ = on; }

  // Sends one statement of the workload and times it.  In the traced run
  // the statement is split into layer spans (see README.md).
  exi::Result<exi::QueryResult> Run(OpKind kind, const std::string& sql);
  double last_latency_ms() const { return last_latency_ms_; }

  // Runs a statement outside the measurement (set-up, shadow DML); its time
  // is excluded from throughput.  A failure counts as an error.
  exi::Status Untimed(const std::string& sql);
  // Same for work done through the engine's API rather than SQL.
  exi::Status Unmeasured(const std::function<exi::Status()>& work);

  // Result check, untimed: compares `got` (the answer of `indexed_sql`)
  // with the shadow table's functional evaluation `shadow_sql`.  With a
  // LIMIT, `got` must be `limit` (or all) rows of the reference.  In the
  // traced run it also re-runs `indexed_sql` through Connection::Execute
  // and requires the same rows.
  void Check(const exi::QueryResult& got, const std::string& indexed_sql,
             const std::string& shadow_sql, size_t limit);

  // CREATE INDEX times of the text index, in seconds, set-up and timed.
  std::vector<double>& text_index_builds() { return text_index_builds_; }

 private:
  exi::Result<exi::QueryResult> RunTraced(OpKind kind, const std::string& sql);

  Options options_;
  TraceKit* kit_;
  exi::Database db_;
  exi::Connection conn_;
  bool measuring_ = false;
  double last_latency_ms_ = 0.0;
  Measurements m_;
  std::vector<double> text_index_builds_;
};

// One workload: a schema, its seeded data, and a closed-loop op mix.
class Workload {
 public:
  virtual ~Workload() = default;
  // Creates the schema, loads the data from the engine's seeded generators,
  // builds the indexes, runs ANALYZE and the warm-up.
  virtual exi::Status Setup(Session& s) = 0;
  // Sends the next unit of timed work (one query, one transaction, ...).
  virtual exi::Status Step(Session& s) = 0;
  // How many timed statements the work counts cover: whole cycles of the
  // mix, which every run reaches well within its measured time.
  virtual uint64_t CountedStatements() const = 0;
};

// "text_search", "text_ingest" or "rolling_window"; null for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
