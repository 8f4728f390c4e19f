#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "index/key.h"

namespace exi {

namespace {

void DescribeRec(const ExecNode& node, int depth, std::ostringstream& os,
                 bool with_stats) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << node.Describe();
  if (with_stats) {
    const ExecNode::NodeStats& st = node.stats();
    os << " (actual rows=" << st.rows << " loops=" << st.loops
       << " time=" << double(st.elapsed_us) / 1000.0 << " ms)";
    std::string storage = st.storage.ToCompactString();
    if (!storage.empty()) {
      os << "\n";
      for (int i = 0; i < depth; ++i) os << "  ";
      os << "  storage: " << storage;
    }
  }
  os << "\n";
  for (const ExecNode* child : node.Children()) {
    DescribeRec(*child, depth + 1, os, with_stats);
  }
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One slice's full ODCIIndexStart/Fetch*/Close cycle, appending its rows to
// `out` (ancillary values padded with NULL to one per row).  Runs each
// slice of a DomainIndexJoinNode probe.
Status DrainSlice(DomainIndexManager* manager, const std::string& index,
                  const OdciPredInfo& pred, uint32_t segment,
                  size_t batch_size, OdciFetchBatch* out) {
  EXI_ASSIGN_OR_RETURN(auto scan, manager->StartScan(index, pred, segment));
  OdciFetchBatch b;
  while (true) {
    EXI_RETURN_IF_ERROR(scan->NextBatch(batch_size, &b));
    if (b.end_of_scan()) break;
    out->rids.insert(out->rids.end(), b.rids.begin(), b.rids.end());
    out->ancillary.insert(out->ancillary.end(), b.ancillary.begin(),
                          b.ancillary.end());
    out->ancillary.resize(out->rids.size(), Value::Null());
  }
  return scan->Close();
}

}  // namespace

std::string DescribePlan(const ExecNode& root) {
  std::ostringstream os;
  DescribeRec(root, 0, os, /*with_stats=*/false);
  return os.str();
}

std::string DescribePlanWithStats(const ExecNode& root) {
  std::ostringstream os;
  DescribeRec(root, 0, os, /*with_stats=*/true);
  return os.str();
}

// ---- ExecNode stats wrappers ----

void ExecNode::EnableStats() {
  stats_enabled_ = true;
  for (const ExecNode* child : Children()) {
    // Children() is const-qualified for EXPLAIN rendering; the nodes it
    // yields are this node's own mutable children.
    const_cast<ExecNode*>(child)->EnableStats();
  }
}

Status ExecNode::Open() {
  if (!stats_enabled_) return OpenImpl();
  if (!window_open_) {
    window_open_ = true;
    window_start_ = GlobalMetrics().Snapshot();
  }
  int64_t t0 = NowUs();
  Status s = OpenImpl();
  stats_.elapsed_us += NowUs() - t0;
  if (s.ok()) stats_.loops++;
  return s;
}

Result<bool> ExecNode::Next(ExecRow* out) {
  if (!stats_enabled_) return NextImpl(out);
  int64_t t0 = NowUs();
  Result<bool> r = NextImpl(out);
  stats_.elapsed_us += NowUs() - t0;
  stats_.next_calls++;
  if (r.ok() && *r) stats_.rows++;
  return r;
}

Status ExecNode::Close() {
  if (!stats_enabled_) return CloseImpl();
  int64_t t0 = NowUs();
  Status s = CloseImpl();
  stats_.elapsed_us += NowUs() - t0;
  if (window_open_) {
    // One storage window per node lifetime: nodes are single-use, but some
    // parents re-Close children they already closed during Open (Sort,
    // block NLJ); only the first Open..Close pair defines the window.
    window_open_ = false;
    stats_.storage = GlobalMetrics().Snapshot().Delta(window_start_);
  }
  return s;
}

// ---- SegmentList ----

void SegmentList::CountScan() const {
  if (partitions == 0) return;
  GlobalMetrics().partitions_scanned += segments.size();
  GlobalMetrics().partitions_pruned += pruned();
}

std::string SegmentList::Suffix(const char* separator) const {
  if (partitions == 0) return "";
  return separator + ("partitions=" + std::to_string(segments.size()) + "/" +
                      std::to_string(partitions));
}

// ---- SeqScanNode ----

SeqScanNode::SeqScanNode(const HeapTable* table, SegmentList segments)
    : table_(table), segments_(std::move(segments)) {}

Status SeqScanNode::OpenImpl() {
  segments_.CountScan();
  seg_pos_ = 0;
  it_.reset();
  return Status::OK();
}

Result<bool> SeqScanNode::NextImpl(ExecRow* out) {
  while (true) {
    if (it_ == nullptr) {
      if (seg_pos_ >= segments_.segments.size()) return false;
      it_ = std::make_unique<HeapTable::Iterator>(
          table_->ScanSegment(segments_.segments[seg_pos_++]));
    }
    if (!it_->Valid()) {
      it_.reset();
      continue;
    }
    out->values = it_->row();
    out->rid = it_->row_id();
    out->ancillary = Value::Null();
    GlobalMetrics().table_rows_read++;
    it_->Next();
    return true;
  }
}

Status SeqScanNode::CloseImpl() {
  it_.reset();
  return Status::OK();
}

std::string SeqScanNode::Describe() const {
  return (segments_.partitions ? "PartitionSeqScan(" : "SeqScan(") +
         table_->name() + segments_.Suffix(", ") + ")";
}

// ---- RowIdListScanNode ----

RowIdListScanNode::RowIdListScanNode(const HeapTable* table,
                                     std::vector<RowId> rids,
                                     std::string label)
    : table_(table), rids_(std::move(rids)), label_(std::move(label)) {}

Status RowIdListScanNode::OpenImpl() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> RowIdListScanNode::NextImpl(ExecRow* out) {
  while (pos_ < rids_.size()) {
    RowId rid = rids_[pos_++];
    Result<Row> row = table_->Get(rid);
    if (!row.ok()) continue;  // row deleted since index lookup
    out->values = std::move(row).value();
    out->rid = rid;
    out->ancillary = Value::Null();
    return true;
  }
  return false;
}

Status RowIdListScanNode::CloseImpl() { return Status::OK(); }

std::string RowIdListScanNode::Describe() const {
  return label_ + " -> fetch " + table_->name() + " (" +
         std::to_string(rids_.size()) + " rowids)";
}

// ---- DomainIndexScanNode ----

DomainIndexScanNode::DomainIndexScanNode(DomainIndexManager* manager,
                                         const HeapTable* table,
                                         std::string index_name,
                                         OdciPredInfo pred, SegmentList slices,
                                         size_t batch_size)
    : manager_(manager),
      table_(table),
      index_name_(std::move(index_name)),
      pred_(std::move(pred)),
      slices_(std::move(slices)),
      batch_size_(batch_size) {}

Status DomainIndexScanNode::OpenImpl() {
  slices_.CountScan();
  next_slice_ = 0;
  scan_.reset();
  batch_ = OdciFetchBatch();
  batch_pos_ = 0;
  return Status::OK();
}

Result<bool> DomainIndexScanNode::RefillBatch() {
  while (true) {
    if (scan_ == nullptr) {
      if (next_slice_ >= slices_.segments.size()) return false;
      EXI_ASSIGN_OR_RETURN(
          scan_, manager_->StartScan(index_name_, pred_,
                                     slices_.segments[next_slice_++]));
    }
    EXI_RETURN_IF_ERROR(scan_->NextBatch(batch_size_, &batch_));
    batch_pos_ = 0;
    if (!batch_.end_of_scan()) return true;
    EXI_RETURN_IF_ERROR(scan_->Close());
    scan_.reset();
  }
}

Result<bool> DomainIndexScanNode::NextImpl(ExecRow* out) {
  while (true) {
    if (batch_pos_ >= batch_.rids.size()) {
      EXI_ASSIGN_OR_RETURN(bool more, RefillBatch());
      if (!more) return false;
      continue;
    }
    RowId rid = batch_.rids[batch_pos_];
    Value anc = batch_pos_ < batch_.ancillary.size()
                    ? batch_.ancillary[batch_pos_]
                    : Value::Null();
    ++batch_pos_;
    Result<Row> row = table_->Get(rid);
    if (!row.ok()) continue;  // stale rowid
    out->values = std::move(row).value();
    out->rid = rid;
    out->ancillary = std::move(anc);
    return true;
  }
}

Status DomainIndexScanNode::CloseImpl() {
  if (scan_ != nullptr) {
    Status st = scan_->Close();
    scan_.reset();
    return st;
  }
  return Status::OK();
}

std::string DomainIndexScanNode::Describe() const {
  return (slices_.partitions ? "PartitionedIndexScan(" : "DomainIndexScan(") +
         index_name_ + ", op=" + pred_.operator_name + slices_.Suffix(", ") +
         ", batch=" + std::to_string(batch_size_) + ")";
}

// ---- FilterNode ----

FilterNode::FilterNode(std::unique_ptr<ExecNode> child,
                       const sql::Expr* predicate)
    : child_(std::move(child)), predicate_(predicate) {}

Status FilterNode::OpenImpl() { return child_->Open(); }

Result<bool> FilterNode::NextImpl(ExecRow* out) {
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, child_->Next(out));
    if (!have) return false;
    EXI_ASSIGN_OR_RETURN(
        bool pass,
        Evaluator::EvalPredicate(*predicate_, out->values,
                                 &out->ancillary));
    if (pass) return true;
  }
}

Status FilterNode::CloseImpl() { return child_->Close(); }

std::string FilterNode::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

std::vector<const ExecNode*> FilterNode::Children() const {
  return {child_.get()};
}

// ---- ProjectNode ----

ProjectNode::ProjectNode(std::unique_ptr<ExecNode> child,
                         std::vector<const sql::Expr*> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

Status ProjectNode::OpenImpl() { return child_->Open(); }

Result<bool> ProjectNode::NextImpl(ExecRow* out) {
  ExecRow in;
  EXI_ASSIGN_OR_RETURN(bool have, child_->Next(&in));
  if (!have) return false;
  out->values.clear();
  out->values.reserve(exprs_.size());
  for (const sql::Expr* e : exprs_) {
    EXI_ASSIGN_OR_RETURN(Value v,
                         Evaluator::Eval(*e, in.values, &in.ancillary));
    out->values.push_back(std::move(v));
  }
  out->rid = in.rid;
  out->ancillary = in.ancillary;
  return true;
}

Status ProjectNode::CloseImpl() { return child_->Close(); }

std::string ProjectNode::Describe() const {
  std::string s = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i) s += ", ";
    s += exprs_[i]->ToString();
  }
  return s + ")";
}

std::vector<const ExecNode*> ProjectNode::Children() const {
  return {child_.get()};
}

// ---- NestedLoopJoinNode ----

NestedLoopJoinNode::NestedLoopJoinNode(std::unique_ptr<ExecNode> left,
                                       std::unique_ptr<ExecNode> right)
    : left_(std::move(left)), right_(std::move(right)) {}

Status NestedLoopJoinNode::OpenImpl() {
  EXI_RETURN_IF_ERROR(left_->Open());
  EXI_RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  ExecRow row;
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, right_->Next(&row));
    if (!have) break;
    right_rows_.push_back(row.values);
  }
  EXI_RETURN_IF_ERROR(right_->Close());
  have_left_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinNode::NextImpl(ExecRow* out) {
  while (true) {
    if (!have_left_) {
      EXI_ASSIGN_OR_RETURN(bool have, left_->Next(&left_row_));
      if (!have) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    if (right_pos_ >= right_rows_.size()) {
      have_left_ = false;
      continue;
    }
    const Row& right = right_rows_[right_pos_++];
    out->values = left_row_.values;
    out->values.insert(out->values.end(), right.begin(), right.end());
    out->rid = kInvalidRowId;
    out->ancillary = Value::Null();
    return true;
  }
}

Status NestedLoopJoinNode::CloseImpl() { return left_->Close(); }

std::string NestedLoopJoinNode::Describe() const { return "NestedLoopJoin"; }

std::vector<const ExecNode*> NestedLoopJoinNode::Children() const {
  return {left_.get(), right_.get()};
}

// ---- IndexJoinNode ----

IndexJoinNode::IndexJoinNode(std::unique_ptr<ExecNode> left,
                             const HeapTable* inner,
                             const BTreeIndex* inner_index,
                             const sql::Expr* key_expr)
    : left_(std::move(left)),
      inner_(inner),
      inner_index_(inner_index),
      key_expr_(key_expr) {}

Status IndexJoinNode::OpenImpl() {
  EXI_RETURN_IF_ERROR(left_->Open());
  have_left_ = false;
  matches_.clear();
  match_pos_ = 0;
  return Status::OK();
}

Result<bool> IndexJoinNode::NextImpl(ExecRow* out) {
  while (true) {
    if (!have_left_) {
      EXI_ASSIGN_OR_RETURN(bool have, left_->Next(&left_row_));
      if (!have) return false;
      have_left_ = true;
      EXI_ASSIGN_OR_RETURN(Value key,
                           Evaluator::Eval(*key_expr_, left_row_.values));
      matches_ = key.is_null() ? std::vector<RowId>{}
                               : inner_index_->ScanEqual({key});
      match_pos_ = 0;
    }
    while (match_pos_ < matches_.size()) {
      RowId rid = matches_[match_pos_++];
      Result<Row> row = inner_->Get(rid);
      if (!row.ok()) continue;
      out->values = left_row_.values;
      out->values.insert(out->values.end(), row->begin(), row->end());
      out->rid = kInvalidRowId;
      out->ancillary = Value::Null();
      return true;
    }
    have_left_ = false;
  }
}

Status IndexJoinNode::CloseImpl() { return left_->Close(); }

std::string IndexJoinNode::Describe() const {
  return "IndexJoin(inner=" + inner_->name() + " via " +
         inner_index_->name() + ", key=" + key_expr_->ToString() + ")";
}

std::vector<const ExecNode*> IndexJoinNode::Children() const {
  return {left_.get()};
}

// ---- DomainIndexJoinNode ----

DomainIndexJoinNode::DomainIndexJoinNode(
    std::unique_ptr<ExecNode> outer, size_t outer_offset, size_t outer_width,
    DomainIndexManager* manager, const HeapTable* inner, size_t inner_offset,
    size_t inner_width, std::string index_name,
    std::vector<uint32_t> inner_slices, OdciPredInfo pred,
    std::vector<const sql::Expr*> arg_exprs, size_t batch_size,
    size_t parallelism)
    : outer_(std::move(outer)),
      outer_offset_(outer_offset),
      outer_width_(outer_width),
      manager_(manager),
      inner_(inner),
      inner_offset_(inner_offset),
      inner_width_(inner_width),
      index_name_(std::move(index_name)),
      inner_slices_(std::move(inner_slices)),
      pred_(std::move(pred)),
      arg_exprs_(std::move(arg_exprs)),
      batch_size_(batch_size),
      parallelism_(parallelism ? parallelism : 1) {}

bool DomainIndexJoinNode::parallel_enabled() const {
  return parallelism_ > 1 && manager_->ScanIsParallelSafe(index_name_);
}

Status DomainIndexJoinNode::OpenImpl() {
  EXI_RETURN_IF_ERROR(outer_->Open());
  window_limit_ = parallel_enabled() ? parallelism_ * 2 : 1;
  outer_done_ = false;
  window_.clear();
  probe_ = OdciFetchBatch();
  probe_pos_ = 0;
  if (window_limit_ > 1) ThreadPool::Global().EnsureWorkerCount(parallelism_);
  return Status::OK();
}

Result<bool> DomainIndexJoinNode::EnqueueProbe() {
  ExecRow outer_row;
  EXI_ASSIGN_OR_RETURN(bool have, outer_->Next(&outer_row));
  if (!have) return false;
  PendingProbe probe;
  probe.padded.assign(outer_width_ + inner_width_, Value::Null());
  for (size_t i = 0; i < outer_row.values.size(); ++i) {
    probe.padded[outer_offset_ + i] = std::move(outer_row.values[i]);
  }
  // Argument expressions are evaluated here, on the consumer thread; only
  // the cartridge probe itself (Start/Fetch*/Close) may run on the pool.
  OdciPredInfo pred = pred_;
  for (const sql::Expr* e : arg_exprs_) {
    EXI_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*e, probe.padded));
    pred.args.push_back(std::move(v));
  }
  auto run = [manager = manager_, index = index_name_, pred = std::move(pred),
              slices = inner_slices_,
              n = batch_size_]() -> Result<OdciFetchBatch> {
    OdciFetchBatch all;
    for (uint32_t segment : slices) {
      EXI_RETURN_IF_ERROR(DrainSlice(manager, index, pred, segment, n, &all));
    }
    return all;
  };
  if (window_limit_ > 1) {
    probe.result = ThreadPool::Global().Submit(std::move(run));
  } else {
    // A window of 1 probes inline on the consumer thread, so a cartridge
    // without parallel_scan never runs on a pool worker.
    std::promise<Result<OdciFetchBatch>> done;
    done.set_value(run());
    probe.result = done.get_future();
  }
  window_.push_back(std::move(probe));
  return true;
}

Result<bool> DomainIndexJoinNode::NextImpl(ExecRow* out) {
  while (true) {
    if (probe_pos_ < probe_.rids.size()) {
      RowId rid = probe_.rids[probe_pos_++];
      Result<Row> inner_row = inner_->Get(rid);
      if (!inner_row.ok()) continue;  // stale rowid
      out->values = padded_;
      for (size_t i = 0; i < inner_row->size(); ++i) {
        out->values[inner_offset_ + i] = std::move((*inner_row)[i]);
      }
      out->rid = kInvalidRowId;
      out->ancillary = Value::Null();
      return true;
    }
    // The front probe is merged: top the window back up so workers stay
    // busy, then take the next probe in outer order.
    while (!outer_done_ && window_.size() < window_limit_) {
      EXI_ASSIGN_OR_RETURN(bool have, EnqueueProbe());
      if (!have) outer_done_ = true;
    }
    if (window_.empty()) return false;
    PendingProbe probe = std::move(window_.front());
    window_.pop_front();
    EXI_ASSIGN_OR_RETURN(probe_, probe.result.get());
    probe_pos_ = 0;
    padded_ = std::move(probe.padded);
  }
}

Status DomainIndexJoinNode::CloseImpl() {
  // Join outstanding probes before tearing anything down; each probe closes
  // its own scans.
  for (PendingProbe& probe : window_) (void)probe.result.get();
  window_.clear();
  return outer_->Close();
}

std::string DomainIndexJoinNode::Describe() const {
  std::string desc = "DomainIndexJoin(inner=" + inner_->name() + " via " +
                     index_name_ + ", op=" + pred_.operator_name;
  if (parallel_enabled()) {
    desc += ", parallel=" + std::to_string(parallelism_);
  }
  return desc + ")";
}

std::vector<const ExecNode*> DomainIndexJoinNode::Children() const {
  return {outer_.get()};
}

// ---- SortNode ----

SortNode::SortNode(std::unique_ptr<ExecNode> child,
                   std::vector<const sql::Expr*> keys,
                   std::vector<bool> ascending)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      ascending_(std::move(ascending)) {}

Status SortNode::OpenImpl() {
  EXI_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  ExecRow row;
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, child_->Next(&row));
    if (!have) break;
    rows_.push_back(row);
  }
  EXI_RETURN_IF_ERROR(child_->Close());

  // Precompute sort keys, then order rows by them.
  struct Keyed {
    size_t index;
    Row keys;
  };
  std::vector<Keyed> keyed(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    keyed[i].index = i;
    for (const sql::Expr* k : keys_) {
      EXI_ASSIGN_OR_RETURN(
          Value v,
          Evaluator::Eval(*k, rows_[i].values, &rows_[i].ancillary));
      keyed[i].keys.push_back(std::move(v));
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const Keyed& a, const Keyed& b) {
                     for (size_t k = 0; k < a.keys.size(); ++k) {
                       int c = TotalOrderCompare(a.keys[k], b.keys[k]);
                       if (c != 0) return ascending_[k] ? c < 0 : c > 0;
                     }
                     return false;
                   });
  std::vector<ExecRow> sorted;
  sorted.reserve(rows_.size());
  for (const Keyed& k : keyed) sorted.push_back(std::move(rows_[k.index]));
  rows_ = std::move(sorted);
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortNode::NextImpl(ExecRow* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  return true;
}

Status SortNode::CloseImpl() { return Status::OK(); }

std::string SortNode::Describe() const {
  std::string s = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) s += ", ";
    s += keys_[i]->ToString();
    s += ascending_[i] ? " ASC" : " DESC";
  }
  return s + ")";
}

std::vector<const ExecNode*> SortNode::Children() const {
  return {child_.get()};
}

// ---- DistinctNode ----

DistinctNode::DistinctNode(std::unique_ptr<ExecNode> child)
    : child_(std::move(child)) {}

Status DistinctNode::OpenImpl() {
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctNode::NextImpl(ExecRow* out) {
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, child_->Next(out));
    if (!have) return false;
    if (seen_.insert(out->values).second) return true;
  }
}

Status DistinctNode::CloseImpl() { return child_->Close(); }

std::string DistinctNode::Describe() const { return "Distinct"; }

std::vector<const ExecNode*> DistinctNode::Children() const {
  return {child_.get()};
}

// ---- LimitNode ----

LimitNode::LimitNode(std::unique_ptr<ExecNode> child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitNode::OpenImpl() {
  emitted_ = 0;
  return child_->Open();
}

Result<bool> LimitNode::NextImpl(ExecRow* out) {
  if (emitted_ >= limit_) return false;
  EXI_ASSIGN_OR_RETURN(bool have, child_->Next(out));
  if (!have) return false;
  ++emitted_;
  return true;
}

Status LimitNode::CloseImpl() { return child_->Close(); }

std::string LimitNode::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

std::vector<const ExecNode*> LimitNode::Children() const {
  return {child_.get()};
}

// ---- GroupByNode ----

namespace {

// One aggregate's running state.
struct AggAcc {
  int64_t count = 0;
  double sum = 0.0;
  bool any = false;
  Value min, max;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (DataType(v.tag()).is_numeric()) sum += v.AsDouble();
    if (!any) {
      min = v;
      max = v;
      any = true;
    } else {
      if (TotalOrderCompare(v, min) < 0) min = v;
      if (TotalOrderCompare(v, max) > 0) max = v;
    }
  }

  Value Finish(sql::AggFunc fn) const {
    switch (fn) {
      case sql::AggFunc::kCount:
        return Value::Integer(count);
      case sql::AggFunc::kSum:
        return count ? Value::Double(sum) : Value::Null();
      case sql::AggFunc::kAvg:
        return count ? Value::Double(sum / double(count)) : Value::Null();
      case sql::AggFunc::kMin:
        return any ? min : Value::Null();
      case sql::AggFunc::kMax:
        return any ? max : Value::Null();
    }
    return Value::Null();
  }
};

struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareKeys(a, b) < 0;
  }
};

}  // namespace

GroupByNode::GroupByNode(std::unique_ptr<ExecNode> child,
                         std::vector<const sql::Expr*> keys,
                         std::vector<const sql::Expr*> aggs,
                         std::vector<Output> outputs)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      outputs_(std::move(outputs)) {}

Status GroupByNode::OpenImpl() {
  EXI_RETURN_IF_ERROR(child_->Open());
  std::map<Row, std::vector<AggAcc>, KeyLess> groups;
  ExecRow row;
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, child_->Next(&row));
    if (!have) break;
    Row key;
    key.reserve(keys_.size());
    for (const sql::Expr* k : keys_) {
      EXI_ASSIGN_OR_RETURN(Value v,
                           Evaluator::Eval(*k, row.values, &row.ancillary));
      key.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const sql::Expr* e = aggs_[a];
      if (e->agg_star) {
        it->second[a].count++;
        continue;
      }
      EXI_ASSIGN_OR_RETURN(
          Value v,
          Evaluator::Eval(*e->children[0], row.values, &row.ancillary));
      it->second[a].Add(v);
    }
  }
  EXI_RETURN_IF_ERROR(child_->Close());
  // Whole-input aggregation emits its one row even for empty input.
  if (keys_.empty() && groups.empty()) {
    groups.try_emplace(Row{}).first->second.resize(aggs_.size());
  }

  results_.clear();
  results_.reserve(groups.size());
  for (const auto& [key, accs] : groups) {
    Row out;
    out.reserve(outputs_.size());
    for (const Output& o : outputs_) {
      if (o.is_aggregate) {
        out.push_back(accs[o.index].Finish(aggs_[o.index]->agg));
      } else {
        out.push_back(key[o.index]);
      }
    }
    results_.push_back(std::move(out));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> GroupByNode::NextImpl(ExecRow* out) {
  if (pos_ >= results_.size()) return false;
  out->values = std::move(results_[pos_++]);
  out->rid = kInvalidRowId;
  out->ancillary = Value::Null();
  return true;
}

Status GroupByNode::CloseImpl() { return Status::OK(); }

std::string GroupByNode::Describe() const {
  std::string s = keys_.empty() ? "Aggregate(" : "GroupBy(keys=";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) s += ", ";
    s += keys_[i]->ToString();
  }
  if (!keys_.empty()) s += "; aggs=";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i) s += ", ";
    s += aggs_[i]->ToString();
  }
  return s + ")";
}

std::vector<const ExecNode*> GroupByNode::Children() const {
  return {child_.get()};
}

}  // namespace exi
