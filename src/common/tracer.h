#ifndef EXTIDX_COMMON_TRACER_H_
#define EXTIDX_COMMON_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace exi {

// Per-ODCI-call tracing (the observability layer's core): every dispatch
// through the extensible-indexing framework — definition, maintenance,
// scan, and optimizer-statistics routines — records its latency here,
// keyed by (indextype, routine).  The paper's performance argument is made
// in operation counts (ODCIIndex dispatches, callback round-trips); this
// is the engine-side ledger those counts are read from, surfaced through
// the V$ODCI_CALLS virtual table, EXPLAIN ANALYZE, and the bench JSON
// emitters.
//
// Concurrency: recording happens from the consumer thread and from pool
// workers (domain-index join probes — DESIGN.md §5).  The tracer shards
// its tables by thread so workers almost never contend; Snapshot() merges
// the shards into one consistent-enough view —
// per-entry counts are exact (each increment lands in exactly one shard),
// cross-entry skew is acceptable, exactly like Oracle's v$ views.

// Latency histogram over power-of-two microsecond buckets: bucket k counts
// calls with latency in [2^k, 2^(k+1)) µs (bucket 0 also absorbs sub-µs
// calls; the last bucket absorbs everything slower).
struct LatencyHistogram {
  static constexpr size_t kBuckets = 20;  // [<1µs .. >=2^19µs (~0.5s)]
  uint64_t buckets[kBuckets] = {0};

  void Record(int64_t us);
  void Merge(const LatencyHistogram& other);
  // Upper bound (µs) of the bucket containing the p-quantile (p in [0,1]),
  // or 0 when empty — a coarse percentile good enough for spotting
  // latency-shape changes.
  int64_t ApproxPercentileUs(double p) const;
  // Compact rendering of non-empty buckets, e.g. "2us:5 4us:1".
  std::string ToString() const;
};

// Accumulated statistics for one (indextype, routine) pair.
struct RoutineStats {
  std::string cartridge;  // the cartridge's TraceLabel(), for display
  uint64_t calls = 0;
  uint64_t errors = 0;  // calls whose Status was not OK
  int64_t total_us = 0;
  int64_t min_us = 0;  // 0 until the first call lands
  int64_t max_us = 0;
  LatencyHistogram hist;

  void Record(int64_t us, bool ok);
  void Merge(const RoutineStats& other);
  RoutineStats Delta(const RoutineStats& since) const;
  double avg_us() const {
    return calls ? double(total_us) / double(calls) : 0.0;
  }
};

// (indextype, routine) -> merged stats, ordered for deterministic output.
using TracerSnapshot =
    std::map<std::pair<std::string, std::string>, RoutineStats>;

// Entries in `after` minus matching entries in `before`; entries whose
// call-count did not change are dropped.  The window primitive behind
// EXPLAIN ANALYZE's "ODCI calls (this statement)" section and the
// observability tests.
TracerSnapshot TracerDelta(const TracerSnapshot& after,
                           const TracerSnapshot& before);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records one completed routine invocation.  `routine` is the ODCI name
  // ("ODCIIndexFetch", "ODCIStatsSelectivity", ...); `cartridge` is the
  // implementation's TraceLabel().  Thread-safe; called from pool workers.
  void Record(const std::string& indextype, const char* cartridge,
              const char* routine, int64_t us, bool ok);

  // Merges all shards.  Counts for any entry are exact as of some point
  // between the call's start and return.
  TracerSnapshot Snapshot() const;

  // Clears every shard (tests and bench warm-up isolation).
  void Reset();

  // Process-wide tracer, same lifetime discipline as GlobalMetrics().
  static Tracer& Global();

 private:
  // One shard per thread-id hash: a pool worker and the consumer thread
  // land in different shards with high probability, so recording is an
  // uncontended lock plus a small-map lookup.
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    TracerSnapshot stats;
  };
  Shard& ShardForThisThread();

  Shard shards_[kShards];
};

// RAII scope measuring one ODCI dispatch.  Construct just before invoking
// the routine; call set_failed() if the Status came back non-OK.
class ScopedOdciTrace {
 public:
  ScopedOdciTrace(const std::string& indextype, const char* cartridge,
                  const char* routine)
      : indextype_(indextype),
        cartridge_(cartridge),
        routine_(routine),
        start_(std::chrono::steady_clock::now()) {}

  ScopedOdciTrace(const ScopedOdciTrace&) = delete;
  ScopedOdciTrace& operator=(const ScopedOdciTrace&) = delete;

  ~ScopedOdciTrace() {
    int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    Tracer::Global().Record(indextype_, cartridge_, routine_, us, ok_);
  }

  void set_failed() { ok_ = false; }

 private:
  const std::string& indextype_;
  const char* cartridge_;
  const char* routine_;
  std::chrono::steady_clock::time_point start_;
  bool ok_ = true;
};

}  // namespace exi

#endif  // EXTIDX_COMMON_TRACER_H_
