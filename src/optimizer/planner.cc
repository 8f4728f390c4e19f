#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "common/strings.h"
#include "optimizer/cost_model.h"
#include "optimizer/stats.h"

namespace exi {

using sql::BinaryOp;
using sql::CallKind;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;

namespace {

bool HasUserOperator(const Expr& e) {
  if (e.call == CallKind::kOperator) return true;
  for (const auto& c : e.children) {
    if (HasUserOperator(*c)) return true;
  }
  return false;
}

// True if every column reference falls in slot range [lo, hi).
bool RefsOnlyRange(const Expr& e, size_t lo, size_t hi) {
  if (e.kind == ExprKind::kColumnRef) {
    return e.slot >= 0 && size_t(e.slot) >= lo && size_t(e.slot) < hi;
  }
  for (const auto& c : e.children) {
    if (!RefsOnlyRange(*c, lo, hi)) return false;
  }
  return true;
}

// Whether `e` calls Score().
bool CallsScore(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall &&
      e.call == sql::CallKind::kScore) {
    return true;
  }
  for (const auto& c : e.children) {
    if (CallsScore(*c)) return true;
  }
  return false;
}

// Whether `e` can be the value side of a matched predicate: no aggregate or
// `*`, and column references only in slots [lo, hi).  An empty range admits
// constants only, which the matchers fold at plan time.
bool IsOperand(const Expr& e, size_t lo, size_t hi) {
  return e.kind != ExprKind::kAggregate && e.kind != ExprKind::kStar &&
         RefsOnlyRange(e, lo, hi);
}

// A plain (non-attribute) reference to a column of `table`.
bool IsColumnOf(const Expr& e, const BoundTable& table) {
  return e.kind == ExprKind::kColumnRef && e.attr_index < 0 &&
         RefsOnlyRange(e, table.slot_offset,
                       table.slot_offset + table.schema->size());
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

// `key relop operand` read from either side of a comparison conjunct, with
// `op` normalized so the key is on the left.
struct Comparison {
  Expr* key;
  Expr* operand;
  BinaryOp op;
};

template <typename IsKey>
std::optional<Comparison> SplitComparison(Expr* e, IsKey is_key, size_t lo,
                                          size_t hi) {
  if (e->kind != ExprKind::kBinary) return std::nullopt;
  switch (e->bop) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  Expr* lhs = e->children[0].get();
  Expr* rhs = e->children[1].get();
  if (is_key(*lhs) && IsOperand(*rhs, lo, hi)) {
    return Comparison{lhs, rhs, e->bop};
  }
  if (is_key(*rhs) && IsOperand(*lhs, lo, hi)) {
    return Comparison{rhs, lhs, FlipComparison(e->bop)};
  }
  return std::nullopt;
}

// `col relop operand` on a column of one table, where the operand references
// only slots [lo, hi): constants for an access path, the outer side for a
// join probe.
struct ColumnComparison {
  int local_column;  // index within the table schema
  std::string column_name;
  BinaryOp op;  // normalized so the column is on the left
  const Expr* operand;
  Value bound;  // the folded operand, for an empty slot range only
};

Result<std::optional<ColumnComparison>> MatchColumnComparison(
    Expr* e, const BoundTable& table, size_t lo, size_t hi) {
  std::optional<Comparison> cmp = SplitComparison(
      e, [&table](const Expr& x) { return IsColumnOf(x, table); }, lo, hi);
  if (!cmp.has_value()) return std::optional<ColumnComparison>();
  ColumnComparison cc;
  cc.local_column = cmp->key->slot - int(table.slot_offset);
  cc.column_name = table.schema->column(cc.local_column).name;
  cc.op = cmp->op;
  cc.operand = cmp->operand;
  if (lo == hi) {
    EXI_ASSIGN_OR_RETURN(Value bound, Evaluator::Eval(*cc.operand, {}));
    // A bound no index key stands for is one the evaluator compares
    // otherwise than the index would (or rejects with TypeMismatch); leave
    // the conjunct to the filter.
    std::optional<Value> key = Evaluator::CoerceKey(
        table.schema->column(cc.local_column).type, bound);
    if (!key.has_value()) return std::optional<ColumnComparison>();
    cc.bound = std::move(*key);
  }
  return std::optional<ColumnComparison>(std::move(cc));
}

// A user-operator conjunct a domain index on the first argument's column
// can answer: the operator, normalized bounds and the argument expressions
// after the column.
struct DomainOpMatch {
  int local_column;
  std::string column_name;
  std::vector<const Expr*> args;
  OdciPredInfo pred;  // args folded only for an empty argument slot range
};

// Normalized memoization key for one slice's ODCIStats pair
// (optimizer/stats_cache.h): the full predicate shape the cartridge's
// Selectivity / IndexCost routines can observe — operator, folded
// arguments, bounds with inclusivity.  Literal argument values are part of
// the key, so `Contains(doc, 'oracle')` and `Contains(doc, 'index')`
// memoize separately.
std::string StatsCacheKey(const OdciPredInfo& pred) {
  std::string key = pred.operator_name;
  for (const Value& v : pred.args) {
    key += '\x1f';
    key += v.ToString();
  }
  key += '\x1f';
  if (pred.lower_bound.has_value()) {
    key += pred.lower_inclusive ? "[" : "(";
    key += pred.lower_bound->ToString();
  } else {
    key += "-inf";
  }
  key += '\x1f';
  if (pred.upper_bound.has_value()) {
    key += pred.upper_inclusive ? "]" : ")";
    key += pred.upper_bound->ToString();
  } else {
    key += "+inf";
  }
  return key;
}

// Whether bounds on a BOOLEAN operator's value select exactly the rows
// where it is TRUE, comparing TRUE as 1 and FALSE as 0: they admit TRUE and
// exclude FALSE.  Only such a predicate is what the operator's index
// returns; a bound that is neither boolean nor numeric admits neither.
bool SelectsTrueOnly(const OdciPredInfo& pred) {
  auto as_number = [](const Value& v) -> std::optional<double> {
    if (v.tag() == TypeTag::kBoolean) return v.AsBoolean() ? 1.0 : 0.0;
    if (DataType(v.tag()).is_numeric()) return v.AsDouble();
    return std::nullopt;
  };
  const std::optional<double> lo =
      pred.lower_bound ? as_number(*pred.lower_bound) : -INFINITY;
  const std::optional<double> hi =
      pred.upper_bound ? as_number(*pred.upper_bound) : INFINITY;
  if (!lo || !hi) return false;
  auto admits = [&](double x) {
    return (pred.lower_inclusive ? x >= *lo : x > *lo) &&
           (pred.upper_inclusive ? x <= *hi : x < *hi);
  };
  return admits(1.0) && !admits(0.0);
}

// Whether an absent or present bound is of the family of a non-BOOLEAN
// operator's return type, so the operator's index and the evaluator
// compare it alike: numeric for INTEGER/DOUBLE, VARCHAR for VARCHAR.
bool InReturnFamily(const DataType& ret, const std::optional<Value>& bound) {
  if (!bound.has_value()) return true;
  const DataType type(bound->tag());
  return ret.is_numeric() ? type.is_numeric()
                          : ret.tag() == TypeTag::kVarchar &&
                                type.tag() == TypeTag::kVarchar;
}

// The one matcher from conjunct to OdciPredInfo.  `e` is `op(col, args...)`
// bare or compared with a constant, `col` a column of `table`, and every
// other argument references only slots [lo, hi): constants for an access
// path, the outer side for a join probe.  A bare call reads as
// `op(...) = TRUE` (paper footnote 1).  A BOOLEAN operator matches when the
// bounds select its TRUE rows, and reaches the cartridge as `= TRUE`; any
// other operator matches when both bounds are of its return-type family.
// Every other form stays a functional filter.
Result<std::optional<DomainOpMatch>> MatchDomainOp(Expr* e,
                                                   const BoundTable& table,
                                                   size_t lo, size_t hi) {
  DomainOpMatch m;
  OdciPredInfo& pred = m.pred;
  Expr* call = e;
  if (e->call == CallKind::kOperator) {
    pred.lower_bound = pred.upper_bound = Value::Boolean(true);
  } else {
    std::optional<Comparison> cmp = SplitComparison(
        e, [](const Expr& x) { return x.call == CallKind::kOperator; }, 0, 0);
    if (!cmp.has_value()) return std::optional<DomainOpMatch>();
    call = cmp->key;
    EXI_ASSIGN_OR_RETURN(Value bound, Evaluator::Eval(*cmp->operand, {}));
    if (cmp->op != BinaryOp::kLt && cmp->op != BinaryOp::kLe) {
      pred.lower_bound = bound;
      pred.lower_inclusive = cmp->op != BinaryOp::kGt;
    }
    if (cmp->op != BinaryOp::kGt && cmp->op != BinaryOp::kGe) {
      pred.upper_bound = bound;
      pred.upper_inclusive = cmp->op != BinaryOp::kLt;
    }
  }
  if (call->children.empty() || !IsColumnOf(*call->children[0], table)) {
    return std::optional<DomainOpMatch>();
  }
  const DataType& ret = call->result_type;
  if (ret.tag() == TypeTag::kBoolean) {
    if (!SelectsTrueOnly(pred)) return std::optional<DomainOpMatch>();
    pred.lower_bound = pred.upper_bound = Value::Boolean(true);
    pred.lower_inclusive = pred.upper_inclusive = true;
  } else if (!InReturnFamily(ret, pred.lower_bound) ||
             !InReturnFamily(ret, pred.upper_bound)) {
    return std::optional<DomainOpMatch>();
  }
  pred.operator_name = call->function;
  m.local_column = call->children[0]->slot - int(table.slot_offset);
  m.column_name = table.schema->column(m.local_column).name;
  for (size_t i = 1; i < call->children.size(); ++i) {
    const Expr& arg = *call->children[i];
    if (!IsOperand(arg, lo, hi)) return std::optional<DomainOpMatch>();
    m.args.push_back(&arg);
    if (lo == hi) {
      EXI_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(arg, {}));
      // A NULL argument is not handed to the cartridge; the conjunct is
      // evaluated functionally.
      if (v.is_null()) return std::optional<DomainOpMatch>();
      pred.args.push_back(std::move(v));
    }
  }
  return std::optional<DomainOpMatch>(std::move(m));
}

// Residual predicate cost profile after consuming the given conjuncts.
void CountResidual(const std::vector<Expr*>& conjuncts,
                   const std::vector<int>& consumed, int* builtin,
                   int* user) {
  *builtin = 0;
  *user = 0;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (std::find(consumed.begin(), consumed.end(), int(i)) !=
        consumed.end()) {
      continue;
    }
    if (HasUserOperator(*conjuncts[i])) {
      ++*user;
    } else {
      ++*builtin;
    }
  }
}

// Bounds on one column accumulated from every comparison conjunct over it
// (merging `v >= a AND v <= b` into a single bounded range scan).
struct ColumnRange {
  std::string column_name;
  std::optional<KeyBound> lo;
  std::optional<KeyBound> hi;
  bool has_eq = false;
  Value eq;
  std::vector<int> conjuncts;  // indices absorbed into this range

  void Absorb(int conjunct_index, const ColumnComparison& cc) {
    conjuncts.push_back(conjunct_index);
    column_name = cc.column_name;
    switch (cc.op) {
      case BinaryOp::kEq:
        has_eq = true;
        eq = cc.bound;
        break;
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        KeyBound nb{{cc.bound}, cc.op == BinaryOp::kGe};
        if (!lo.has_value() || CompareKeys(nb.key, lo->key) > 0 ||
            (CompareKeys(nb.key, lo->key) == 0 && !nb.inclusive)) {
          lo = nb;
        }
        break;
      }
      case BinaryOp::kLt:
      case BinaryOp::kLe: {
        KeyBound nb{{cc.bound}, cc.op == BinaryOp::kLe};
        if (!hi.has_value() || CompareKeys(nb.key, hi->key) < 0 ||
            (CompareKeys(nb.key, hi->key) == 0 && !nb.inclusive)) {
          hi = nb;
        }
        break;
      }
      default:
        break;
    }
  }
};

// Static partition pruning (DESIGN.md §7): which partitions can hold rows
// satisfying the accumulated range on the partition-key column?
// Conservative — a partition is pruned only when provably disjoint from the
// predicate interval.  The conjuncts themselves are NOT consumed; they stay
// as residual filters above the scan.
std::vector<const PartitionDef*> PrunePartitions(const PartitionScheme& scheme,
                                                 const ColumnRange* range) {
  std::vector<const PartitionDef*> out;
  if (range == nullptr) {
    for (const PartitionDef& p : scheme.partitions) out.push_back(&p);
    return out;
  }
  if (scheme.method == PartitionMethod::kHash) {
    // Hash distribution preserves nothing but equality.
    if (range->has_eq && !scheme.partitions.empty()) {
      size_t b = PartitionScheme::HashBucket(range->eq,
                                             scheme.partitions.size());
      out.push_back(&scheme.partitions[b]);
      return out;
    }
    for (const PartitionDef& p : scheme.partitions) out.push_back(&p);
    return out;
  }
  // RANGE: partition i covers [bound(i-1), bound(i)), MAXVALUE = +inf.
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool hi_inclusive = true;
  if (range->has_eq) {
    lo = range->eq;
    hi = range->eq;
  } else {
    if (range->lo.has_value()) lo = range->lo->key[0];
    if (range->hi.has_value()) {
      hi = range->hi->key[0];
      hi_inclusive = range->hi->inclusive;
    }
  }
  const Value* prev = nullptr;  // this partition's (inclusive) lower bound
  for (const PartitionDef& p : scheme.partitions) {
    bool keep = true;
    // Disjoint below: partition upper bound (exclusive) <= predicate lower.
    // (Holds whether the predicate's lower bound is open or closed: every
    // row in the partition is strictly below `lo` either way.)
    if (lo.has_value() && p.upper_bound.has_value() &&
        TotalOrderCompare(*p.upper_bound, *lo) <= 0) {
      keep = false;
    }
    // Disjoint above: partition lower bound (inclusive) is past the
    // predicate upper — strictly above it, or equal when the predicate
    // excludes its endpoint (key < X prunes the partition starting at X).
    if (hi.has_value() && prev != nullptr) {
      int cmp = TotalOrderCompare(*prev, *hi);
      if (cmp > 0 || (cmp == 0 && !hi_inclusive)) keep = false;
    }
    if (keep) out.push_back(&p);
    prev = p.upper_bound.has_value() ? &p.upper_bound.value() : nullptr;
  }
  return out;
}

// True when `idx` is a domain index whose indextype supports `op` on
// `column_type` and whose slices over `segments` are all VALID.  A
// non-VALID index is skipped (Oracle SKIP_UNUSABLE semantics,
// docs/fault-tolerance.md) with an EXPLAIN line naming the `fallback` plan.
Result<bool> UsableDomainIndex(const Catalog& catalog, const IndexInfo& idx,
                               const std::string& op,
                               const DataType& column_type,
                               const std::vector<uint32_t>& segments,
                               const char* fallback, std::string* explain) {
  if (!idx.is_domain()) return false;
  bool valid = true;
  for (uint32_t segment : segments) {
    const IndexSlice* slice = idx.SliceForSegment(segment);
    valid = valid && slice != nullptr && slice->status == IndexStatus::kValid;
  }
  if (!valid) {
    *explain += "domain index " + idx.name + " skipped: status " +
                IndexStatusName(idx.effective_status()) + " (" + fallback +
                " fallback)\n";
    return false;
  }
  EXI_ASSIGN_OR_RETURN(const IndexTypeDef* itype,
                       catalog.GetIndexType(idx.indextype));
  return itype->Supports(op, column_type);
}

}  // namespace

void Planner::SplitConjuncts(Expr* expr, std::vector<Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->bop == BinaryOp::kAnd) {
    SplitConjuncts(expr->children[0].get(), out);
    SplitConjuncts(expr->children[1].get(), out);
    return;
  }
  out->push_back(expr);
}

Result<Planner::TableEnv> Planner::ResolveFrom(const SelectStmt& stmt) {
  if (stmt.from.empty()) {
    return Status::BindError("SELECT requires a FROM clause");
  }
  TableEnv env;
  size_t offset = 0;
  for (const sql::TableRef& ref : stmt.from) {
    EXI_ASSIGN_OR_RETURN(HeapTable * heap, catalog_->GetTable(ref.table));
    BoundTable bt;
    bt.alias = ref.effective_name();
    bt.table_name = ref.table;
    bt.schema = &heap->schema();
    bt.slot_offset = offset;
    offset += heap->schema().size();
    env.tables.push_back(std::move(bt));
    env.heaps.push_back(heap);
  }
  return env;
}

Result<std::unique_ptr<ExecNode>> Planner::PlanTableAccess(
    const BoundTable& table, const HeapTable* heap,
    const std::vector<Expr*>& conjuncts, std::string* explain,
    bool* indexed) {
  EXI_ASSIGN_OR_RETURN(TableInfo * tinfo,
                       catalog_->GetTableInfo(table.table_name));
  const TableStats& stats = tinfo->stats;
  uint64_t n = heap->row_count();

  struct Candidate {
    double cost;
    std::string desc;
    std::vector<int> consumed;  // conjunct indices served by the access path
    std::function<Result<std::unique_ptr<ExecNode>>()> build;
  };
  std::vector<Candidate> candidates;

  // Accumulate comparison conjuncts into per-column ranges so that
  // `v >= a AND v <= b` becomes one bounded scan.
  std::map<int, ColumnRange> ranges;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    EXI_ASSIGN_OR_RETURN(std::optional<ColumnComparison> cc,
                         MatchColumnComparison(conjuncts[ci], table, 0, 0));
    if (cc.has_value()) ranges[cc->local_column].Absorb(int(ci), *cc);
  }

  // The heap segments every access path reads: segment 0 of a plain table,
  // or the partitions surviving static pruning on the partition key
  // (DESIGN.md §7).
  const PartitionScheme& scheme = tinfo->partitioning;
  SegmentList scan{{0}, 0};
  if (scheme.partitioned()) {
    auto kit = ranges.find(int(scheme.key_index));
    scan.segments.clear();
    scan.partitions = scheme.partitions.size();
    for (const PartitionDef* p : PrunePartitions(
             scheme, kit != ranges.end() ? &kit->second : nullptr)) {
      scan.segments.push_back(p->segment_id);
    }
    *explain += "partition pruning on " + table.alias + ": " +
                std::to_string(scan.segments.size()) + " of " +
                std::to_string(scan.partitions) + " partitions survive\n";
  }
  uint64_t surviving_rows = 0;
  for (uint32_t segment : scan.segments) {
    surviving_rows += heap->SegmentRowCount(segment);
  }

  // Sequential scan with per-row (possibly functional) evaluation.
  {
    int nb;
    int nu;
    CountResidual(conjuncts, {}, &nb, &nu);
    Candidate c;
    c.cost = CostModel::SeqScan(surviving_rows, nb, nu);
    c.desc = (scan.partitions ? "PartitionSeqScan(" : "SeqScan(") +
             heap->name() + ")" + scan.Suffix(" ");
    c.build = [heap, scan]() -> Result<std::unique_ptr<ExecNode>> {
      return std::unique_ptr<ExecNode>(new SeqScanNode(heap, scan));
    };
    candidates.push_back(std::move(c));
  }

  for (auto& [local_column, range] : ranges) {
    // Combined selectivity.
    double sel;
    if (range.has_eq) {
      sel = EqualitySelectivity(stats, local_column);
    } else {
      double lo_sel = range.lo.has_value()
                          ? RangeSelectivity(stats, local_column,
                                             range.lo->inclusive ? 'g' : '>',
                                             range.lo->key[0])
                          : 1.0;
      double hi_sel = range.hi.has_value()
                          ? RangeSelectivity(stats, local_column,
                                             range.hi->inclusive ? 'l' : '<',
                                             range.hi->key[0])
                          : 1.0;
      sel = lo_sel + hi_sel - 1.0;
      if (sel < 0.0005) sel = 0.0005;
    }
    for (IndexInfo* idx :
         catalog_->IndexesOnColumn(table.table_name, range.column_name)) {
      if (idx->is_domain()) continue;
      // A multi-column index can only answer a single-column predicate on
      // its leading column as a key-prefix scan, which needs an equality
      // bound.
      bool is_prefix_probe = idx->columns.size() > 1;
      if (is_prefix_probe && !range.has_eq) continue;
      int nb;
      int nu;
      CountResidual(conjuncts, range.conjuncts, &nb, &nu);
      double matches = sel * double(n);
      Candidate c;
      c.cost = CostModel::BTreeIndexScan(3.0, matches, nb, nu);
      c.desc = "BTREE(" + idx->name + ") on " + range.column_name +
               " sel=" + std::to_string(sel);
      c.consumed = range.conjuncts;
      ColumnRange r = range;
      const BTreeIndex* bidx = idx->builtin.get();
      c.build = [heap, bidx, r,
                 is_prefix_probe]() -> Result<std::unique_ptr<ExecNode>> {
        std::vector<RowId> rids;
        if (is_prefix_probe) {
          rids = bidx->ScanLeadingPrefix({r.eq});
        } else if (r.has_eq) {
          rids = bidx->ScanEqual({r.eq});
          // Residual bounds over an equality are unusual (e.g. v = 5 AND
          // v < 3); re-check them here so consuming both stays correct.
          if (r.lo.has_value() || r.hi.has_value()) {
            CompositeKey key = {r.eq};
            bool keep = true;
            if (r.lo.has_value()) {
              int cmp = CompareKeys(key, r.lo->key);
              keep = keep && (cmp > 0 || (cmp == 0 && r.lo->inclusive));
            }
            if (r.hi.has_value()) {
              int cmp = CompareKeys(key, r.hi->key);
              keep = keep && (cmp < 0 || (cmp == 0 && r.hi->inclusive));
            }
            if (!keep) rids.clear();
          }
        } else {
          rids = bidx->ScanRange(r.lo, r.hi);
        }
        return std::unique_ptr<ExecNode>(new RowIdListScanNode(
            heap, std::move(rids), "BTREEScan(" + bidx->name() + ")"));
      };
      candidates.push_back(std::move(c));
    }
  }

  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    Expr* conjunct = conjuncts[ci];
    // Domain index paths.
    EXI_ASSIGN_OR_RETURN(std::optional<DomainOpMatch> dm,
                         MatchDomainOp(conjunct, table, 0, 0));
    if (dm.has_value()) {
      const DataType& col_type =
          table.schema->column(dm->local_column).type;
      for (IndexInfo* idx :
           catalog_->IndexesOnColumn(table.table_name, dm->column_name)) {
        // Only the slices the plan would actually scan need to be VALID;
        // otherwise the predicate stays a residual filter over the seq scan.
        EXI_ASSIGN_OR_RETURN(
            bool usable,
            UsableDomainIndex(*catalog_, *idx, dm->pred.operator_name, col_type,
                              scan.segments, "seq-scan", explain));
        if (!usable) continue;
        // Each surviving slice prices itself (memoized on the slice); the
        // sums are over the rows the plan would scan.  `sel` is matches per
        // scanned row, or the slices' mean answer when they hold no rows.
        const std::string stats_key = StatsCacheKey(dm->pred);
        double matches = 0.0;
        double odci_cost = 0.0;
        double sel_sum = 0.0;
        for (uint32_t segment : scan.segments) {
          IndexSlice& slice = *idx->SliceForSegment(segment);
          std::optional<SliceEstimate> est =
              stats_cache_->Lookup(slice, stats_key);
          if (!est.has_value()) {
            EXI_ASSIGN_OR_RETURN(
                est, domains_->EstimateSlice(idx, slice, dm->pred));
            stats_cache_->Store(slice, stats_key, *est);
          }
          matches += est->selectivity * double(heap->SegmentRowCount(segment));
          odci_cost += est->cost;
          sel_sum += est->selectivity;
        }
        double sel = surviving_rows ? matches / double(surviving_rows)
                     : scan.segments.empty()
                         ? 0.0
                         : sel_sum / double(scan.segments.size());
        int nb;
        int nu;
        CountResidual(conjuncts, {int(ci)}, &nb, &nu);
        Candidate c;
        c.consumed = {int(ci)};
        std::string index_name = idx->name;
        OdciPredInfo pred = dm->pred;
        DomainIndexManager* domains = domains_;
        size_t batch = fetch_batch_;
        c.cost = CostModel::DomainIndexScan(odci_cost, matches, nb, nu);
        c.desc =
            (scan.partitions ? "PartitionedDomainIndex(" : "DomainIndex(") +
            idx->name + ") op=" + dm->pred.operator_name +
            " sel=" + std::to_string(sel) + scan.Suffix(" ");
        c.build = [domains, heap, index_name, pred, scan,
                   batch]() -> Result<std::unique_ptr<ExecNode>> {
          return std::unique_ptr<ExecNode>(new DomainIndexScanNode(
              domains, heap, index_name, pred, scan, batch));
        };
        candidates.push_back(std::move(c));
      }
    }
  }

  // Pick the cheapest.
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].cost < candidates[best].cost) best = i;
  }
  std::ostringstream os;
  os << "access path candidates for " << table.alias << ":\n";
  for (size_t i = 0; i < candidates.size(); ++i) {
    os << (i == best ? "  * " : "    ") << candidates[i].desc
       << " cost=" << candidates[i].cost << "\n";
  }
  *explain += os.str();

  EXI_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node, candidates[best].build());
  const std::vector<int>& consumed = candidates[best].consumed;
  if (indexed != nullptr) *indexed = !consumed.empty();
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    if (std::find(consumed.begin(), consumed.end(), int(ci)) ==
        consumed.end()) {
      node = std::make_unique<FilterNode>(std::move(node), conjuncts[ci],
                                          table.slot_offset);
    }
  }
  return node;
}

Result<std::optional<Planner::Probe>> Planner::FindProbe(
    const BoundTable& table, size_t lo, size_t hi,
    const std::vector<Expr*>& joins, std::string* explain) {
  for (size_t ci = 0; ci < joins.size(); ++ci) {
    EXI_ASSIGN_OR_RETURN(std::optional<DomainOpMatch> dm,
                         MatchDomainOp(joins[ci], table, lo, hi));
    if (!dm.has_value()) continue;
    const DataType& col_type = table.schema->column(dm->local_column).type;
    for (IndexInfo* idx :
         catalog_->IndexesOnColumn(table.table_name, dm->column_name)) {
      // Every probe scans every slice, so all of them must be VALID;
      // otherwise the nested-loop fallback evaluates the operator
      // functionally.
      std::vector<uint32_t> slices;
      for (const IndexSlice& slice : idx->slices) {
        slices.push_back(slice.segment);
      }
      EXI_ASSIGN_OR_RETURN(
          bool usable,
          UsableDomainIndex(*catalog_, *idx, dm->pred.operator_name, col_type,
                            slices, "join", explain));
      if (!usable) continue;
      Probe p{ci, {}};
      p.probe.manager = domains_;
      p.probe.index = idx->name;
      p.probe.slices = std::move(slices);
      p.probe.pred = std::move(dm->pred);
      p.probe.args = std::move(dm->args);
      p.probe.conjunct = joins[ci];
      p.probe.batch_size = fetch_batch_;
      return std::optional<Probe>(std::move(p));
    }
  }
  for (size_t ci = 0; ci < joins.size(); ++ci) {
    EXI_ASSIGN_OR_RETURN(std::optional<ColumnComparison> cc,
                         MatchColumnComparison(joins[ci], table, lo, hi));
    if (!cc.has_value() || cc->op != BinaryOp::kEq) continue;
    for (IndexInfo* idx :
         catalog_->IndexesOnColumn(table.table_name, cc->column_name)) {
      // Only single-column built-in indexes can be probed with the join
      // key; composite ones would need a prefix probe per row.
      if (idx->is_domain() || idx->columns.size() != 1) continue;
      Probe p{ci, {}};
      p.probe.btree = idx->builtin.get();
      p.probe.key = cc->operand;
      p.probe.key_type = table.schema->column(cc->local_column).type;
      return std::optional<Probe>(std::move(p));
    }
  }
  return std::optional<Probe>();
}

Result<std::unique_ptr<ExecNode>> Planner::PlanJoins(
    const TableEnv& env, const std::vector<Expr*>& conjuncts,
    std::string* explain) {
  const size_t n = env.tables.size();
  auto end_of = [&env](size_t t) {
    return env.tables[t].slot_offset + env.tables[t].schema->size();
  };
  // A conjunct is local to the first table whose slots hold every column it
  // references (a constant one to the first table); the rest join tables.
  // Score() reads the ancillary value of a single-table domain-index scan,
  // which no joined row carries, so in a join a conjunct calling it joins
  // tables: every FROM order evaluates it over the joined rows.
  std::vector<std::vector<Expr*>> local(n);
  std::vector<Expr*> joins;
  for (Expr* c : conjuncts) {
    size_t t = n > 1 && CallsScore(*c) ? n : 0;
    while (t < n && !RefsOnlyRange(*c, env.tables[t].slot_offset, end_of(t))) {
      ++t;
    }
    (t < n ? local[t] : joins).push_back(c);
  }

  // Each table's access path over its local conjuncts, planned when first
  // asked for (each table is used once); its EXPLAIN lines are added when
  // the path is used.
  struct Access {
    std::unique_ptr<ExecNode> node;
    std::string explain;
    bool indexed = false;
  };
  std::vector<Access> access(n);
  auto plan_access = [&](size_t t) -> Status {
    Access& a = access[t];
    if (a.node == nullptr) {
      EXI_ASSIGN_OR_RETURN(a.node,
                           PlanTableAccess(env.tables[t], env.heaps[t],
                                           local[t], &a.explain, &a.indexed));
    }
    return Status::OK();
  };
  auto use_access = [&](size_t t) -> Result<std::unique_ptr<ExecNode>> {
    EXI_RETURN_IF_ERROR(plan_access(t));
    *explain += access[t].explain;
    return std::move(access[t].node);
  };
  // A probe of table t from the outer slots [lo, hi).  A B-tree probe is
  // declined when t's own access path reads t through an index: that local
  // predicate narrows t once, where a probe per outer row would fetch every
  // key match and filter them afterwards.
  auto find_probe = [&](size_t t, size_t lo,
                        size_t hi) -> Result<std::optional<Probe>> {
    EXI_ASSIGN_OR_RETURN(std::optional<Probe> p,
                         FindProbe(env.tables[t], lo, hi, joins, explain));
    if (p.has_value() && p->probe.btree != nullptr && !local[t].empty()) {
      EXI_RETURN_IF_ERROR(plan_access(t));
      if (access[t].indexed) p.reset();
    }
    return p;
  };

  // Left-deep in FROM order, except that of two tables the inner is the one
  // with a probe: a domain-index probe before a B-tree one, the second
  // table on a tie.
  std::vector<size_t> order(n);
  for (size_t t = 0; t < n; ++t) order[t] = t;
  std::optional<Probe> probe2;  // the two-table join's probe
  if (n == 2) {
    EXI_ASSIGN_OR_RETURN(probe2, find_probe(1, 0, end_of(0)));
    EXI_ASSIGN_OR_RETURN(std::optional<Probe> probe0,
                         find_probe(0, end_of(0), end_of(1)));
    auto is_domain = [](const std::optional<Probe>& p) {
      return p.has_value() && p->probe.btree == nullptr;
    };
    if (probe0.has_value() &&
        (!probe2.has_value() || (is_domain(probe0) && !is_domain(probe2)))) {
      order = {1, 0};
      probe2 = std::move(probe0);
    }
  }

  const size_t first = order[0];
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node, use_access(first));
  // The outer side's slots [lo, hi) and aliases.
  size_t lo = env.tables[first].slot_offset;
  size_t hi = end_of(first);
  std::string outer_name = env.tables[first].alias;
  for (size_t k = 1; k < n; ++k) {
    const size_t t = order[k];
    const BoundTable& bt = env.tables[t];
    std::optional<Probe> probe = std::move(probe2);
    if (n > 2) {
      EXI_ASSIGN_OR_RETURN(probe, find_probe(t, lo, hi));
    }
    if (probe.has_value()) {
      const JoinProbe& jp = probe->probe;
      *explain += jp.btree != nullptr
                      ? "index join: " + bt.alias + " via " +
                            jp.btree->name() + "\n"
                      : "domain-index join: probing " + jp.index +
                            " once per " + outer_name + " row (op=" +
                            jp.pred.operator_name + ")\n";
      node = std::make_unique<ProbeJoinNode>(
          std::move(node), lo, hi - lo, env.heaps[t], bt.slot_offset,
          bt.schema->size(), std::move(probe->probe), parallelism_);
      // The probe is the inner's access path: its local conjuncts filter
      // the joined rows.
      joins.erase(joins.begin() + probe->conjunct);
      joins.insert(joins.end(), local[t].begin(), local[t].end());
    } else {
      *explain += "nested-loop join: " + bt.alias + "\n";
      EXI_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> inner, use_access(t));
      node = std::make_unique<NestedLoopJoinNode>(std::move(node),
                                                  std::move(inner));
    }
    lo = std::min(lo, bt.slot_offset);
    hi = std::max(hi, end_of(t));
    outer_name += ", " + bt.alias;
    // A conjunct no probe consumed filters the rows as soon as its tables
    // are joined, in WHERE order.
    for (Expr* c : conjuncts) {
      auto it = std::find(joins.begin(), joins.end(), c);
      if (it != joins.end() && RefsOnlyRange(*c, lo, hi)) {
        joins.erase(it);
        node = std::make_unique<FilterNode>(std::move(node), c);
      }
    }
  }
  return node;
}

Result<PlannedSelect> Planner::PlanSelect(SelectStmt* stmt) {
  EXI_ASSIGN_OR_RETURN(TableEnv env, ResolveFrom(*stmt));
  Binder binder(catalog_);

  // Bind all expressions against the flattened FROM schema.
  for (sql::SelectItem& item : stmt->items) {
    if (item.expr->kind == ExprKind::kStar) continue;
    EXI_RETURN_IF_ERROR(binder.Bind(item.expr.get(), env.tables));
  }
  if (stmt->where != nullptr) {
    EXI_RETURN_IF_ERROR(binder.Bind(stmt->where.get(), env.tables));
  }
  for (sql::OrderItem& item : stmt->order_by) {
    EXI_RETURN_IF_ERROR(binder.Bind(item.expr.get(), env.tables));
  }
  for (auto& key : stmt->group_by) {
    EXI_RETURN_IF_ERROR(binder.Bind(key.get(), env.tables));
  }

  PlannedSelect plan;
  std::vector<Expr*> conjuncts;
  SplitConjuncts(stmt->where.get(), &conjuncts);

  EXI_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                       PlanJoins(env, conjuncts, &plan.explain));

  // Grouping, aggregation, or plain projection.
  bool has_agg = false;
  for (const sql::SelectItem& item : stmt->items) {
    if (item.expr->kind == ExprKind::kAggregate) has_agg = true;
  }
  const bool grouped = !stmt->group_by.empty();
  if (grouped || has_agg) {
    // One aggregation node; without GROUP BY it has zero keys and emits a
    // single row.
    if (grouped && !stmt->order_by.empty()) {
      return Status::NotSupported(
          "ORDER BY combined with GROUP BY is not supported");
    }
    std::vector<const Expr*> keys;
    for (const auto& key : stmt->group_by) keys.push_back(key.get());
    std::vector<const Expr*> aggs;
    std::vector<GroupByNode::Output> outputs;
    for (const sql::SelectItem& item : stmt->items) {
      if (item.expr->kind == ExprKind::kAggregate) {
        outputs.push_back(GroupByNode::Output{true, aggs.size()});
        aggs.push_back(item.expr.get());
      } else if (!grouped) {
        return Status::BindError(
            "mixing aggregates and scalar expressions requires GROUP BY, "
            "which is not supported");
      } else if (item.expr->kind == ExprKind::kStar) {
        return Status::BindError("'*' is not valid with GROUP BY");
      } else {
        // Non-aggregates must match a grouping expression structurally.
        int match = -1;
        std::string text = item.expr->ToString();
        for (size_t k = 0; k < keys.size(); ++k) {
          if (keys[k]->ToString() == text) {
            match = int(k);
            break;
          }
        }
        if (match < 0) {
          return Status::BindError("expression " + text +
                                   " must appear in the GROUP BY clause");
        }
        outputs.push_back(GroupByNode::Output{false, size_t(match)});
      }
      plan.column_names.push_back(
          item.alias.empty() ? item.expr->ToString() : item.alias);
    }
    node = std::make_unique<GroupByNode>(std::move(node), keys, aggs,
                                         std::move(outputs));
    if (grouped && stmt->limit.has_value()) {
      node = std::make_unique<LimitNode>(std::move(node), *stmt->limit);
    }
  } else {
    // ORDER BY / LIMIT operate on full-width rows, before projection.
    if (!stmt->order_by.empty()) {
      std::vector<const Expr*> keys;
      std::vector<bool> ascending;
      for (const sql::OrderItem& item : stmt->order_by) {
        keys.push_back(item.expr.get());
        ascending.push_back(item.ascending);
      }
      node = std::make_unique<SortNode>(std::move(node), keys, ascending);
    }
    if (stmt->limit.has_value()) {
      node = std::make_unique<LimitNode>(std::move(node), *stmt->limit);
    }
    std::vector<const Expr*> projections;
    for (const sql::SelectItem& item : stmt->items) {
      if (item.expr->kind == ExprKind::kStar) {
        // Expand `*` to every column of every FROM table.
        for (const BoundTable& bt : env.tables) {
          for (size_t c = 0; c < bt.schema->size(); ++c) {
            auto col = std::make_unique<Expr>();
            col->kind = ExprKind::kColumnRef;
            col->column = bt.schema->column(c).name;
            col->slot = int(bt.slot_offset + c);
            col->result_type = bt.schema->column(c).type;
            projections.push_back(col.get());
            plan.column_names.push_back(bt.schema->column(c).name);
            plan.owned_exprs.push_back(std::move(col));
          }
        }
      } else {
        projections.push_back(item.expr.get());
        plan.column_names.push_back(
            item.alias.empty() ? item.expr->ToString() : item.alias);
      }
    }
    node = std::make_unique<ProjectNode>(std::move(node), projections);
    if (stmt->distinct) {
      node = std::make_unique<DistinctNode>(std::move(node));
    }
  }

  plan.explain += "plan:\n" + DescribePlan(*node);
  plan.root = std::move(node);
  return plan;
}

}  // namespace exi
