#ifndef EXTIDX_COMMON_METRICS_H_
#define EXTIDX_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace exi {

// Logical I/O and callback accounting for the whole engine.  The paper's
// performance claims (fewer temp-table writes, fewer intermediate writes,
// fewer callback round-trips) are claims about operation *counts*; benches
// report these counters alongside wall-clock time so experiments are
// deterministic across machines.
//
// The counter list, in declaration order.  Every struct and helper below
// is generated from it, and the order is the rendering order of
// V$STORAGE_METRICS and the bench JSON emitters.
#define EXI_STORAGE_METRICS(X)                                              \
  /* Heap/IOT table row operations. */                                      \
  X(table_rows_read)                                                        \
  X(table_rows_written)                                                     \
  X(table_rows_deleted)                                                     \
  /* Built-in index node traversals/updates. */                             \
  X(index_nodes_read)                                                       \
  X(index_entries_written)                                                  \
  /* LOB store chunk operations (in-database large objects). */             \
  X(lob_chunks_read)                                                        \
  X(lob_chunks_written)                                                     \
  X(lob_bytes_written)                                                      \
  /* Copy-on-write LOB snapshot work: chunks physically duplicated because  \
     a write landed on a chunk shared with an undo snapshot, and the bytes  \
     those duplications copied (proportional to the bytes written, not to   \
     the LOB size). */                                                      \
  X(lob_cow_chunks_copied)                                                  \
  X(lob_snapshot_bytes)                                                     \
  /* External file store operations (outside transaction control). */       \
  X(file_reads)                                                             \
  X(file_writes)                                                            \
  X(file_bytes_written)                                                     \
  /* Temporary result-table traffic (pre-8i two-step text plan). */         \
  X(temp_rows_written)                                                      \
  X(temp_rows_read)                                                         \
  /* Extensible-indexing framework dispatch counts. */                      \
  X(odci_start_calls)                                                       \
  X(odci_fetch_calls)                                                       \
  X(odci_close_calls)                                                       \
  X(odci_maintenance_calls)                                                 \
  /* Batched maintenance dispatches (each also counts one maintenance       \
     call) and the rows they covered; rows/calls = mean batch width. */     \
  X(odci_batch_maintenance_calls)                                           \
  X(odci_batch_maintenance_rows)                                            \
  /* Retrying ODCI call guard (docs/fault-tolerance.md): attempts re-issued \
     after a transient (IoError/Busy) failure, and logical calls abandoned  \
     because the per-call retry deadline expired. */                        \
  X(odci_retries)                                                           \
  X(odci_call_timeouts)                                                     \
  X(functional_evaluations) /* per-row operator function calls */          \
  /* Partitioned tables (DESIGN.md §7): partitions eliminated by static     \
     pruning vs. actually opened by partition-aware scans, and the number   \
     of per-partition LOCAL domain-index slices built via                   \
     ODCIIndexCreate. */                                                    \
  X(partitions_pruned)                                                      \
  X(partitions_scanned)                                                     \
  X(local_index_storages)

// A plain value type — the shape benches and tests compute deltas over.
struct StorageMetrics {
#define EXI_METRIC_FIELD(name) uint64_t name = 0;
  EXI_STORAGE_METRICS(EXI_METRIC_FIELD)
#undef EXI_METRIC_FIELD

  StorageMetrics Delta(const StorageMetrics& since) const;
  // "name=value" for every counter, space-separated.
  std::string ToString() const;
  // Like ToString() but omits zero-valued counters; "" when all are zero.
  // Used for per-node annotations in EXPLAIN ANALYZE, where most nodes
  // touch only one or two counters.
  std::string ToCompactString() const;
};

// Calls fn(name, value) for every StorageMetrics counter in declaration
// order.
template <typename Fn>
void ForEachMetric(const StorageMetrics& m, Fn&& fn) {
#define EXI_METRIC_VISIT(name) fn(#name, m.name);
  EXI_STORAGE_METRICS(EXI_METRIC_VISIT)
#undef EXI_METRIC_VISIT
}

// The live counters: same fields as StorageMetrics, atomically updatable.
// Increments from pool workers (domain-index join probes) and the
// consumer thread interleave; Snapshot() reads a consistent-enough view for
// accounting (individual loads are atomic; cross-counter skew is acceptable
// for benchmarking, exactly like Oracle's v$ views).
struct AtomicStorageMetrics {
#define EXI_METRIC_ATOMIC(name) std::atomic<uint64_t> name{0};
  EXI_STORAGE_METRICS(EXI_METRIC_ATOMIC)
#undef EXI_METRIC_ATOMIC

  StorageMetrics Snapshot() const;
  void Reset();
  std::string ToString() const { return Snapshot().ToString(); }
};

// Process-wide metrics sink.
AtomicStorageMetrics& GlobalMetrics();

}  // namespace exi

#endif  // EXTIDX_COMMON_METRICS_H_
