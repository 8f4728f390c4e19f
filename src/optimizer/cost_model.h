#ifndef EXTIDX_OPTIMIZER_COST_MODEL_H_
#define EXTIDX_OPTIMIZER_COST_MODEL_H_

#include <cstdint>

namespace exi {

// Abstract cost units for access-path comparison.  One unit is roughly one
// row or index-node touch; user-operator functional evaluation is charged a
// large multiple because it runs arbitrary cartridge code per row (e.g.
// tokenizing a document for Contains) — this asymmetry is what makes
// domain-index scans attractive, exactly the trade the paper's optimizer
// discussion (§2.4.2) turns on.
struct CostModel {
  static constexpr double kRowFetchCost = 1.0;
  static constexpr double kBuiltinPredCost = 0.1;
  static constexpr double kUserFuncEvalCost = 10.0;
  static constexpr double kIndexNodeCost = 1.0;
  static constexpr double kDomainScanStartCost = 10.0;

  // Sequential scan evaluating predicates per row.
  static double SeqScan(uint64_t rows, int builtin_preds, int user_op_preds) {
    return double(rows) *
           (kRowFetchCost + builtin_preds * kBuiltinPredCost +
            user_op_preds * kUserFuncEvalCost);
  }

  // B-tree probe returning `matches` rows, then fetching them and
  // evaluating residual predicates.
  static double BTreeIndexScan(double height, double matches,
                               int residual_builtin, int residual_user) {
    return height * kIndexNodeCost +
           matches * (kRowFetchCost + residual_builtin * kBuiltinPredCost +
                      residual_user * kUserFuncEvalCost);
  }

  // Domain-index scan: the indextype's own scan cost plus base-row fetches
  // and residual predicate evaluation.
  static double DomainIndexScan(double odci_cost, double matches,
                                int residual_builtin, int residual_user) {
    return odci_cost +
           matches * (kRowFetchCost + residual_builtin * kBuiltinPredCost +
                      residual_user * kUserFuncEvalCost);
  }
};

}  // namespace exi

#endif  // EXTIDX_OPTIMIZER_COST_MODEL_H_
