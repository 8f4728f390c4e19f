#ifndef EXTIDX_EXEC_EXECUTOR_H_
#define EXTIDX_EXEC_EXECUTOR_H_

#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "index/key.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/domain_index.h"
#include "exec/evaluator.h"
#include "sql/ast.h"
#include "types/value.h"

namespace exi {

// A row flowing through the executor: flattened column values, the RowId of
// the driving table (single-table plans; kInvalidRowId after joins or
// projection), and an optional ancillary value from a domain-index scan
// (e.g. a relevance score — the paper's ancillary operator data).
struct ExecRow {
  Row values;
  RowId rid = kInvalidRowId;
  Value ancillary;
};

// Volcano-style iterator.  Open -> Next* -> Close; Next returns false when
// exhausted.  Nodes are single-use.
//
// The public Open/Next/Close are non-virtual wrappers; subclasses implement
// OpenImpl/NextImpl/CloseImpl.  When EnableStats() has been called on the
// plan (EXPLAIN ANALYZE), the wrappers record per-node row counts, loop
// counts, wall time, and a StorageMetrics window; otherwise they add a
// single predicted branch per call.
class ExecNode {
 public:
  // Runtime statistics for one node, Postgres EXPLAIN ANALYZE semantics:
  // `elapsed_us` and `storage` are inclusive of time/work in descendants
  // (the storage window spans Open..Close, so work done by pool workers on
  // this node's behalf — parallel join probes — is included too).
  struct NodeStats {
    uint64_t loops = 0;       // completed Open() invocations
    uint64_t rows = 0;        // rows produced across all loops
    uint64_t next_calls = 0;  // Next() invocations (rows + end-of-stream)
    int64_t elapsed_us = 0;   // wall time inside Open/Next/Close
    StorageMetrics storage;   // GlobalMetrics delta over Open..Close
  };

  virtual ~ExecNode() = default;

  Status Open();
  Result<bool> Next(ExecRow* out);
  Status Close();

  // Turns on stats collection for this node and every descendant.  Call
  // before Open(); collection cannot be turned off on a live plan.
  void EnableStats();
  bool stats_enabled() const { return stats_enabled_; }
  const NodeStats& stats() const { return stats_; }

  // One line describing this node for EXPLAIN output.
  virtual std::string Describe() const = 0;
  virtual std::vector<const ExecNode*> Children() const { return {}; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(ExecRow* out) = 0;
  virtual Status CloseImpl() = 0;

 private:
  bool stats_enabled_ = false;
  bool window_open_ = false;  // storage window armed (Open seen, Close not)
  NodeStats stats_;
  StorageMetrics window_start_;
};

// Renders a plan tree (for EXPLAIN).
std::string DescribePlan(const ExecNode& root);

// Renders a plan tree with per-node actuals appended to each line
// (EXPLAIN ANALYZE); nodes must have run with EnableStats() on.
std::string DescribePlanWithStats(const ExecNode& root);

// ---- scans ----

// The heap segments a scan reads, in order, and the static partition
// pruning that chose them (DESIGN.md §7).  An unpartitioned table is the
// one-segment case {0}.  `partitions` is the partition count before
// pruning, or 0 for an unpartitioned table: such a scan moves no partition
// counters and keeps its plain EXPLAIN name.
struct SegmentList {
  std::vector<uint32_t> segments;
  size_t partitions = 0;

  size_t pruned() const { return partitions - segments.size(); }
  // Bumps partitions_scanned / partitions_pruned for a partition-aware scan.
  void CountScan() const;
  // " partitions=k/n" for a partition-aware scan, else "".
  std::string Suffix(const char* separator) const;
};

// Sequential scan over a segment list: "SeqScan(t)", or
// "PartitionSeqScan(t, partitions=k/n)" when partition-aware.
class SeqScanNode : public ExecNode {
 public:
  SeqScanNode(const HeapTable* table, SegmentList segments);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;

 private:
  const HeapTable* table_;
  SegmentList segments_;
  size_t seg_pos_ = 0;
  std::unique_ptr<HeapTable::Iterator> it_;
};

// Fetches an explicit RowId list from a heap table (the output of a
// built-in index scan).
class RowIdListScanNode : public ExecNode {
 public:
  RowIdListScanNode(const HeapTable* table, std::vector<RowId> rids,
                    std::string label);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;

 private:
  const HeapTable* table_;
  std::vector<RowId> rids_;
  std::string label_;
  size_t pos_ = 0;
};

// Domain-index scan (§2.4.2) over a slice list: for each slice (named by
// the heap segment it covers) one ODCIIndexStart/Fetch*/Close cycle
// through the DomainIndexManager, results concatenated in slice order and
// pipelined into base-table fetches.  `batch_size` is the ODCIIndexFetch
// batch size (§2.5 batch interface).
//
// Scans are incremental and serial at every parallelism: a slice is
// started only when the previous one is exhausted, and a batch is fetched
// only when the consumer has drained the last one, all on the consumer
// thread.  A slice is closed at its empty or `last` batch.  A LIMIT or
// first-row query therefore does no ODCI work past the rows it takes.
class DomainIndexScanNode : public ExecNode {
 public:
  DomainIndexScanNode(DomainIndexManager* manager, const HeapTable* table,
                      std::string index_name, OdciPredInfo pred,
                      SegmentList slices, size_t batch_size = 256);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;

 private:
  // Refills batch_, starting the next slice's scan as each one ends; false
  // once the last slice is exhausted.
  Result<bool> RefillBatch();

  DomainIndexManager* manager_;
  const HeapTable* table_;
  std::string index_name_;
  OdciPredInfo pred_;
  SegmentList slices_;
  size_t batch_size_;

  // One live slice scan at a time.
  size_t next_slice_ = 0;
  std::unique_ptr<DomainIndexManager::Scan> scan_;
  OdciFetchBatch batch_;
  size_t batch_pos_ = 0;
};

// ---- relational operators ----

// Passes the child's rows that satisfy `predicate`.  The predicate is bound
// to FROM-wide slots; `slot_offset` is the FROM slot of the child's first
// column, non-zero when the child is the access node of a later FROM table
// (whose rows are table-width).
class FilterNode : public ExecNode {
 public:
  FilterNode(std::unique_ptr<ExecNode> child, const sql::Expr* predicate,
             size_t slot_offset = 0);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> child_;
  const sql::Expr* predicate_;
  size_t slot_offset_;
};

class ProjectNode : public ExecNode {
 public:
  ProjectNode(std::unique_ptr<ExecNode> child,
              std::vector<const sql::Expr*> exprs);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> child_;
  std::vector<const sql::Expr*> exprs_;
};

// Block nested-loop join: materializes the right input at Open, then emits
// left x right concatenations (the join predicate lives in a FilterNode
// above).  The right input is the next FROM table, so the concatenation is
// in FROM order.
class NestedLoopJoinNode : public ExecNode {
 public:
  NestedLoopJoinNode(std::unique_ptr<ExecNode> left,
                     std::unique_ptr<ExecNode> right);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> left_;
  std::unique_ptr<ExecNode> right_;
  std::vector<Row> right_rows_;
  ExecRow left_row_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

// What a ProbeJoinNode looks up in the inner table for one outer row.
struct JoinProbe {
  // A domain-index probe (the paper's spatial layer join, §3.2.2): a copy
  // of `pred` (the planner's matched operator and normalized bounds, no
  // arguments) carrying the outer row's values of `args` as its arguments,
  // run as one ODCIIndexStart/Fetch*/Close cycle per slice of `index` (the
  // heap segments in `slices`, in slice order; {0} for a global index),
  // results concatenated in slice order.  E.g. Sdo_Relate(parks.geometry,
  // roads.geometry, 'mask=OVERLAPS') probes the parks index per roads row.
  // An outer row with a NULL argument is not handed to the cartridge: its
  // matches are the inner rows for which `conjunct`, the join conjunct the
  // probe answers, evaluates true functionally.
  DomainIndexManager* manager = nullptr;
  std::string index;
  std::vector<uint32_t> slices;
  OdciPredInfo pred;
  std::vector<const sql::Expr*> args;
  const sql::Expr* conjunct = nullptr;
  size_t batch_size = 256;

  // A B-tree equality probe, when `btree` is set: ScanEqual on the outer
  // row's value of `key`, coerced to the indexed column's `key_type`
  // (Evaluator::CoerceKey, as the planner coerces a constant bound).
  const BTreeIndex* btree = nullptr;
  const sql::Expr* key = nullptr;
  DataType key_type;
};

// Index nested-loop join: for each outer row, looks up the matching inner
// rows through `probe` and emits one joined row per match.
//
// Output rows are full-width in FROM order regardless of which side drives:
// outer values land at `outer_offset`, inner values at `inner_offset`.
//
// The node keeps one ordered window of probes: outer rows are drafted (and
// their probe arguments evaluated, on the consumer thread — a registered
// function is not assumed safe for concurrent use) and merged strictly in
// outer order.  The window holds 2 x `parallelism` probes running as pool
// tasks for a domain-index probe whose cartridge declares parallel_scan,
// and 1 otherwise — the serial case, where the probe runs inline on the
// consumer thread.  Join probes are not partition-aware: they move no
// partition counters.
class ProbeJoinNode : public ExecNode {
 public:
  ProbeJoinNode(std::unique_ptr<ExecNode> outer, size_t outer_offset,
                size_t outer_width, const HeapTable* inner,
                size_t inner_offset, size_t inner_width, JoinProbe probe,
                size_t parallelism = 1);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  bool parallel_enabled() const;
  // Drafts the next outer row and starts its probe.  Returns false when
  // the outer input is exhausted.
  Result<bool> EnqueueProbe();

  std::unique_ptr<ExecNode> outer_;
  size_t outer_offset_;
  size_t outer_width_;
  const HeapTable* inner_;
  size_t inner_offset_;
  size_t inner_width_;
  JoinProbe probe_;
  size_t parallelism_;

  // The probe window.  FIFO pops preserve outer order.
  struct PendingProbe {
    Row padded;  // full-width row with this probe's outer values installed
    // The matches of an inline probe, or the pool task computing them.
    Result<std::vector<RowId>> matches = std::vector<RowId>();
    std::future<Result<std::vector<RowId>>> task;
  };
  size_t window_limit_ = 1;
  bool outer_done_ = false;
  std::deque<PendingProbe> window_;
  ExecRow outer_row_;  // the outer input's current row, reused
  Row padded_;  // the merged probe's padded row
  std::vector<RowId> matches_;
  size_t match_pos_ = 0;
  // The functional matches of a domain probe whose arguments hold a NULL,
  // by argument tuple, for this Open.  They depend on that tuple alone:
  // MatchDomainOp admits only arguments over outer slots and constants.
  std::map<Row, std::vector<RowId>, KeyLess> null_arg_matches_;
};

class SortNode : public ExecNode {
 public:
  SortNode(std::unique_ptr<ExecNode> child,
           std::vector<const sql::Expr*> keys, std::vector<bool> ascending);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> child_;
  std::vector<const sql::Expr*> keys_;
  std::vector<bool> ascending_;
  std::vector<ExecRow> rows_;
  size_t pos_ = 0;
};

// Duplicate elimination over fully-projected rows (SELECT DISTINCT — the
// paper's pre-8i spatial join is written with it).  Streams rows, keeping
// a set of seen keys.
class DistinctNode : public ExecNode {
 public:
  explicit DistinctNode(std::unique_ptr<ExecNode> child);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> child_;
  std::set<Row, KeyLess> seen_;
};

class LimitNode : public ExecNode {
 public:
  LimitNode(std::unique_ptr<ExecNode> child, int64_t limit);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

// Hash aggregation: groups input rows by the key expressions,
// accumulates aggregates per group, and emits one row per group laid out
// according to `outputs` (each output slot is either a group key or an
// aggregate).  Groups are emitted in key order.  With no keys it is
// whole-input aggregation: exactly one row, even on empty input (COUNT(*)
// = 0), shown as "Aggregate(...)" in EXPLAIN.
class GroupByNode : public ExecNode {
 public:
  // Output slot: references either keys[index] (is_aggregate=false) or
  // aggs[index] (is_aggregate=true).
  struct Output {
    bool is_aggregate;
    size_t index;
  };

  GroupByNode(std::unique_ptr<ExecNode> child,
              std::vector<const sql::Expr*> keys,
              std::vector<const sql::Expr*> aggs,
              std::vector<Output> outputs);

  Status OpenImpl() override;
  Result<bool> NextImpl(ExecRow* out) override;
  Status CloseImpl() override;
  std::string Describe() const override;
  std::vector<const ExecNode*> Children() const override;

 private:
  std::unique_ptr<ExecNode> child_;
  std::vector<const sql::Expr*> keys_;
  std::vector<const sql::Expr*> aggs_;
  std::vector<Output> outputs_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace exi

#endif  // EXTIDX_EXEC_EXECUTOR_H_
