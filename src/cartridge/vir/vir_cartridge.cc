#include "cartridge/vir/vir_cartridge.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <vector>

#include "core/scan_context.h"

namespace exi::vir {

namespace {

int64_t BucketOf(double coarse0) {
  double b = std::floor(coarse0 * VirIndexMethods::kBuckets);
  if (b < 0) b = 0;
  if (b > VirIndexMethods::kBuckets - 1) b = VirIndexMethods::kBuckets - 1;
  return int64_t(b);
}

// The coarse-table row of image `sig` at `rid`.
Row CoarseRow(RowId rid, const Signature& sig) {
  std::array<double, kGroups> coarse = Coarse(sig);
  return {Value::Integer(BucketOf(coarse[0])), Value::Integer(int64_t(rid)),
          Value::Double(coarse[0]), Value::Double(coarse[1]),
          Value::Double(coarse[2]), Value::Double(coarse[3])};
}

// Parses VIRSimilar scan arguments: (query image, weights, threshold).
Status ParseSimilarPred(const OdciPredInfo& pred, Signature* query,
                        Weights* weights, double* threshold) {
  if (pred.args.size() != 3) {
    return Status::InvalidArgument(
        "VIRSimilar index scan expects (image, weights, threshold)");
  }
  EXI_ASSIGN_OR_RETURN(*query, FromValue(pred.args[0]));
  if (pred.args[1].tag() != TypeTag::kVarchar) {
    return Status::InvalidArgument("VIRSimilar weights must be a string");
  }
  EXI_ASSIGN_OR_RETURN(*weights, ParseWeights(pred.args[1].AsVarchar()));
  if (!DataType(pred.args[2].tag()).is_numeric()) {
    return Status::InvalidArgument("VIRSimilar threshold must be numeric");
  }
  *threshold = pred.args[2].AsDouble();
  return Status::OK();
}

// Guarded: concurrent Starts (parallel_scan capability) publish their
// counter snapshots here; readers copy under the same mutex.
std::mutex g_counters_mu;
VirIndexMethods::PhaseCounters g_last_counters;

}  // namespace

VirIndexMethods::PhaseCounters VirIndexMethods::last_counters() {
  std::lock_guard<std::mutex> lock(g_counters_mu);
  return g_last_counters;
}

VirIndexMethods::VirIndexMethods()
    : EntryIndexMethods("$ctab",
                        Schema({{"bucket", DataType::Integer(), true},
                                {"rid", DataType::Integer(), true},
                                {"m0", DataType::Double(), true},
                                {"m1", DataType::Double(), true},
                                {"m2", DataType::Double(), true},
                                {"m3", DataType::Double(), true}}),
                        2) {}

Result<EntryIndexMethods::EntryMaker> VirIndexMethods::Entries(
    const OdciIndexInfo&) const {
  return EntryMaker([](RowId rid, const Value& value,
                       std::vector<Row>* entries) -> Status {
    EXI_ASSIGN_OR_RETURN(Signature sig, FromValue(value));
    entries->push_back(CoarseRow(rid, sig));
    return Status::OK();
  });
}

Result<OdciScanContext> VirIndexMethods::Start(const OdciIndexInfo& info,
                                               const OdciPredInfo& pred,
                                               ServerContext& ctx) {
  Signature query;
  Weights weights;
  double threshold;
  EXI_RETURN_IF_ERROR(ParseSimilarPred(pred, &query, &weights, &threshold));
  std::array<double, kGroups> qcoarse = Coarse(query);
  std::string iot = EntryTable(info.index_name);
  PhaseCounters counters;

  // ---- Phase 1: bucket-window range query on the coarse index table.
  // |mean0(a) - mean0(q)| <= distance/(2*w0), so matches lie within a
  // window of radius threshold/(2*w0) around the query's mean0.  With
  // w0 == 0 the window is unbounded and phase 1 degenerates to a full
  // coarse-table scan (still phases 2-3 filtered).
  int64_t lo_bucket = 0;
  int64_t hi_bucket = kBuckets - 1;
  if (weights.w[0] > 0.0) {
    double radius = threshold / (2.0 * weights.w[0]);
    lo_bucket = BucketOf(qcoarse[0] - radius);
    hi_bucket = BucketOf(qcoarse[0] + radius);
  }
  struct Candidate {
    RowId rid;
    std::array<double, kGroups> coarse;
  };
  std::vector<Candidate> phase1;
  CompositeKey lo = {Value::Integer(lo_bucket)};
  CompositeKey hi = {Value::Integer(hi_bucket),
                     Value::Integer(int64_t(~0ULL >> 1))};
  EXI_RETURN_IF_ERROR(ctx.IotScanRange(
      iot, &lo, true, &hi, true, [&phase1](const Row& row) {
        Candidate c;
        c.rid = RowId(row[1].AsInteger());
        c.coarse = {row[2].AsDouble(), row[3].AsDouble(),
                    row[4].AsDouble(), row[5].AsDouble()};
        phase1.push_back(c);
        return true;
      }));
  counters.phase1_candidates = phase1.size();

  // ---- Phase 2: coarse-distance filter.  For any true match,
  // CoarseDistance(a,q) <= Distance(a,q)/2 <= threshold/2, so this filter
  // admits no false negatives.
  std::vector<Candidate> phase2;
  for (const Candidate& c : phase1) {
    if (CoarseDistance(c.coarse, qcoarse, weights) <= threshold / 2.0) {
      phase2.push_back(c);
    }
  }
  counters.phase2_survivors = phase2.size();

  // ---- Phase 3: full signature comparison.
  int col = info.indexed_position();
  // (rid, distance) pairs, sorted below by distance (most similar first).
  std::vector<std::pair<RowId, double>> matches;
  for (const Candidate& c : phase2) {
    Result<Row> row = ctx.GetBaseTableRow(info.table_name, c.rid);
    if (!row.ok()) continue;
    const Value& v = (*row)[col];
    if (v.is_null()) continue;
    EXI_ASSIGN_OR_RETURN(Signature sig, FromValue(v));
    double d = Distance(sig, query, weights);
    if (d <= threshold) matches.emplace_back(c.rid, d);
  }
  // Ranking over the whole result set — the Precompute-All exemplar
  // (§2.2.3: "operators involving some sort of ranking ... require looking
  // at the entire result set").
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  counters.matches = matches.size();
  {
    std::lock_guard<std::mutex> lock(g_counters_mu);
    g_last_counters = counters;
  }

  return PrecomputedCursor::Park(std::move(matches), [](const auto& m) {
    return std::pair{m.first, Value::Double(m.second)};
  });
}

// ---- stats ----

Result<double> VirStats::Selectivity(const OdciIndexInfo& info,
                                     const OdciPredInfo& pred,
                                     uint64_t table_rows,
                                     ServerContext& ctx) {
  (void)info;
  (void)ctx;
  (void)table_rows;
  Signature query;
  Weights weights;
  double threshold;
  Status st = ParseSimilarPred(pred, &query, &weights, &threshold);
  if (!st.ok()) return 0.01;
  // Smaller thresholds are sharply more selective; signatures live in
  // [0,1]^16 so a weighted distance budget of `total()` is ~everything.
  double sel = threshold / (weights.total() + 1e-9);
  sel = sel * sel;  // volume shrinks superlinearly with radius
  if (sel < 1e-6) sel = 1e-6;
  if (sel > 1.0) sel = 1.0;
  return sel;
}

Result<double> VirStats::IndexCost(const OdciIndexInfo& info,
                                   const OdciPredInfo& pred,
                                   double selectivity, uint64_t table_rows,
                                   ServerContext& ctx) {
  (void)info;
  (void)ctx;
  Signature query;
  Weights weights;
  double threshold;
  double window = 1.0;
  if (ParseSimilarPred(pred, &query, &weights, &threshold).ok() &&
      weights.w[0] > 0.0) {
    window = std::min(1.0, threshold / weights.w[0]);
  }
  // Phase-1 rows scanned + phase-3 fetches.
  return 10.0 + window * double(table_rows) * 0.3 +
         selectivity * double(table_rows) * 2.0;
}

// ---- installation ----

Status InstallVirCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();
  EXI_RETURN_IF_ERROR(catalog.RegisterObjectType(ImageTypeDef()));

  // IMAGE_T(d0, ..., d15) constructor.
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "IMAGE_T", [](const ValueList& args) -> Result<Value> {
        if (args.size() != kSignatureDims) {
          return Status::InvalidArgument("IMAGE_T expects " +
                                         std::to_string(kSignatureDims) +
                                         " numbers");
        }
        Signature sig;
        for (size_t i = 0; i < kSignatureDims; ++i) {
          if (args[i].is_null() || !DataType(args[i].tag()).is_numeric()) {
            return Status::TypeMismatch("IMAGE_T expects numbers");
          }
          sig[i] = args[i].AsDouble();
        }
        return ToValue(sig);
      }));

  // Functional VIRSimilar: full signature comparison per row (§3.2.3
  // pre-8i behavior).
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "VIRSimilarFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 4) {
          return Status::InvalidArgument("VIRSimilar expects 4 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        EXI_ASSIGN_OR_RETURN(Signature a, FromValue(args[0]));
        EXI_ASSIGN_OR_RETURN(Signature b, FromValue(args[1]));
        if (args[2].tag() != TypeTag::kVarchar ||
            !DataType(args[3].tag()).is_numeric()) {
          return Status::TypeMismatch(
              "VIRSimilar expects (image, image, weights, threshold)");
        }
        EXI_ASSIGN_OR_RETURN(Weights w,
                             ParseWeights(args[2].AsVarchar()));
        return Value::Boolean(Distance(a, b, w) <= args[3].AsDouble());
      }));

  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "VirIndexMethods", [] { return std::make_shared<VirIndexMethods>(); },
      [] { return std::make_shared<VirStats>(); }));

  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR VIRSimilar BINDING (OBJECT IMAGE_T, "
                    "OBJECT IMAGE_T, VARCHAR, DOUBLE) RETURN BOOLEAN USING "
                    "VIRSimilarFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE VirIndexType FOR VIRSimilar(OBJECT "
                    "IMAGE_T, OBJECT IMAGE_T, VARCHAR, DOUBLE) USING "
                    "VirIndexMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::vir
