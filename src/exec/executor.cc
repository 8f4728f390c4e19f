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

// One slice's full ODCIIndexStart/Fetch*/Close cycle, appending its rowids
// to `out`.  Runs each slice of a ProbeJoinNode's domain-index probe.
Status DrainSlice(DomainIndexManager* manager, const std::string& index,
                  const OdciPredInfo& pred, uint32_t segment,
                  size_t batch_size, std::vector<RowId>* out) {
  EXI_ASSIGN_OR_RETURN(auto scan, manager->StartScan(index, pred, segment));
  OdciFetchBatch b;
  do {
    EXI_RETURN_IF_ERROR(scan->NextBatch(batch_size, &b));
    out->insert(out->end(), b.rids.begin(), b.rids.end());
  } while (!b.end_of_scan() && !b.last);
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
    if (batch_.end_of_scan() || batch_.last) {
      // The batch owns its rows, so the slice closes before they are used.
      EXI_RETURN_IF_ERROR(scan_->Close());
      scan_.reset();
    }
    if (!batch_.end_of_scan()) return true;
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
                       const sql::Expr* predicate, size_t slot_offset)
    : child_(std::move(child)),
      predicate_(predicate),
      slot_offset_(slot_offset) {}

Status FilterNode::OpenImpl() { return child_->Open(); }

Result<bool> FilterNode::NextImpl(ExecRow* out) {
  Row& row = out->values;
  while (true) {
    EXI_ASSIGN_OR_RETURN(bool have, child_->Next(out));
    if (!have) return false;
    // The evaluator reads row[slot]: shift the row to its FROM slots for the
    // predicate, and back.
    row.insert(row.begin(), slot_offset_, Value::Null());
    Result<bool> pass =
        Evaluator::EvalPredicate(*predicate_, row, &out->ancillary);
    row.erase(row.begin(), row.begin() + slot_offset_);
    if (!pass.ok()) return pass.status();
    if (*pass) return true;
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

// ---- ProbeJoinNode ----

ProbeJoinNode::ProbeJoinNode(std::unique_ptr<ExecNode> outer,
                             size_t outer_offset, size_t outer_width,
                             const HeapTable* inner, size_t inner_offset,
                             size_t inner_width, JoinProbe probe,
                             size_t parallelism)
    : outer_(std::move(outer)),
      outer_offset_(outer_offset),
      outer_width_(outer_width),
      inner_(inner),
      inner_offset_(inner_offset),
      inner_width_(inner_width),
      probe_(std::move(probe)),
      parallelism_(parallelism ? parallelism : 1) {}

bool ProbeJoinNode::parallel_enabled() const {
  return probe_.btree == nullptr && parallelism_ > 1 &&
         probe_.manager->ScanIsParallelSafe(probe_.index);
}

Status ProbeJoinNode::OpenImpl() {
  EXI_RETURN_IF_ERROR(outer_->Open());
  window_limit_ = parallel_enabled() ? parallelism_ * 2 : 1;
  outer_done_ = false;
  window_.clear();
  matches_.clear();
  match_pos_ = 0;
  null_arg_matches_.clear();
  if (window_limit_ > 1) ThreadPool::Global().EnsureWorkerCount(parallelism_);
  return Status::OK();
}

Result<bool> ProbeJoinNode::EnqueueProbe() {
  EXI_ASSIGN_OR_RETURN(bool have, outer_->Next(&outer_row_));
  if (!have) return false;
  PendingProbe& probe = window_.emplace_back();
  probe.padded.assign(outer_width_ + inner_width_, Value::Null());
  for (size_t i = 0; i < outer_row_.values.size(); ++i) {
    probe.padded[outer_offset_ + i] = std::move(outer_row_.values[i]);
  }
  // Probe arguments are evaluated here, on the consumer thread; only the
  // cartridge probe itself (Start/Fetch*/Close) may run on the pool.
  if (probe_.btree != nullptr) {
    EXI_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*probe_.key, probe.padded));
    // A key of another family, or a number other than 0 or 1 against a
    // BOOLEAN column, equals no row.
    std::optional<Value> key = Evaluator::CoerceKey(probe_.key_type, v);
    if (key.has_value() && !key->is_null()) {
      probe.matches = probe_.btree->ScanEqual({*key});
    }
    return true;
  }
  OdciPredInfo pred = probe_.pred;
  bool null_arg = false;
  for (const sql::Expr* e : probe_.args) {
    EXI_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*e, probe.padded));
    null_arg = null_arg || v.is_null();
    pred.args.push_back(std::move(v));
  }
  if (null_arg) {
    // The operator's functional answer, as a nested loop would give it,
    // computed once per argument tuple.
    auto cached = null_arg_matches_.find(pred.args);
    if (cached == null_arg_matches_.end()) {
      std::vector<RowId> rids;
      Row joined = probe.padded;
      for (auto it = inner_->Scan(); it.Valid(); it.Next()) {
        std::copy(it.row().begin(), it.row().end(),
                  joined.begin() + inner_offset_);
        EXI_ASSIGN_OR_RETURN(
            bool keep, Evaluator::EvalPredicate(*probe_.conjunct, joined));
        if (keep) rids.push_back(it.row_id());
      }
      cached = null_arg_matches_.emplace(std::move(pred.args), std::move(rids))
                   .first;
    }
    probe.matches = cached->second;
    return true;
  }
  auto run = [manager = probe_.manager, index = probe_.index,
              pred = std::move(pred), slices = probe_.slices,
              n = probe_.batch_size]() -> Result<std::vector<RowId>> {
    std::vector<RowId> all;
    for (uint32_t segment : slices) {
      EXI_RETURN_IF_ERROR(DrainSlice(manager, index, pred, segment, n, &all));
    }
    return all;
  };
  // A window of 1 probes inline on the consumer thread, so a cartridge
  // without parallel_scan never runs on a pool worker.
  if (window_limit_ > 1) {
    probe.task = ThreadPool::Global().Submit(std::move(run));
  } else {
    probe.matches = run();
  }
  return true;
}

Result<bool> ProbeJoinNode::NextImpl(ExecRow* out) {
  while (true) {
    if (match_pos_ < matches_.size()) {
      RowId rid = matches_[match_pos_++];
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
    PendingProbe& front = window_.front();
    if (front.task.valid()) front.matches = front.task.get();
    if (!front.matches.ok()) return front.matches.status();
    matches_ = std::move(*front.matches);
    match_pos_ = 0;
    padded_ = std::move(front.padded);
    window_.pop_front();
  }
}

Status ProbeJoinNode::CloseImpl() {
  // Join outstanding probes before tearing anything down; each probe closes
  // its own scans.
  for (PendingProbe& probe : window_) {
    if (probe.task.valid()) (void)probe.task.get();
  }
  window_.clear();
  return outer_->Close();
}

std::string ProbeJoinNode::Describe() const {
  if (probe_.btree != nullptr) {
    return "IndexJoin(inner=" + inner_->name() + " via " +
           probe_.btree->name() + ", key=" + probe_.key->ToString() + ")";
  }
  std::string desc = "DomainIndexJoin(inner=" + inner_->name() + " via " +
                     probe_.index + ", op=" + probe_.pred.operator_name;
  if (parallel_enabled()) {
    desc += ", parallel=" + std::to_string(parallelism_);
  }
  return desc + ")";
}

std::vector<const ExecNode*> ProbeJoinNode::Children() const {
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
