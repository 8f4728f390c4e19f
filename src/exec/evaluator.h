#ifndef EXTIDX_EXEC_EVALUATOR_H_
#define EXTIDX_EXEC_EVALUATOR_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "sql/ast.h"
#include "types/value.h"

namespace exi {

// Evaluates bound expressions against a flattened input row.
//
// Semantics: SQL-style NULL propagation — comparisons and arithmetic over
// NULL yield NULL; AND/OR use three-valued logic; a predicate holds only if
// its value is definitely true.  A function call runs the callable the
// Binder resolved, with no catalog lookup.  A user-defined operator
// evaluated here is the *functional* implementation path (§2.2.1) — the
// per-row fallback used when the optimizer does not pick a domain-index
// scan — and, like a registered function, is counted in
// StorageMetrics::functional_evaluations.  The Evaluator holds no state.
class Evaluator {
 public:
  // `ancillary` feeds the Score() pseudo-function with the row's
  // domain-index ancillary value; nullptr means Score() is unavailable in
  // this context (e.g. DML predicates) and evaluates to an error.
  static Result<Value> Eval(const sql::Expr& expr, const Row& row,
                            const Value* ancillary = nullptr);

  // True iff the expression evaluates to a definitely-true value
  // (Boolean TRUE, or a nonzero number — the paper's Contains(...)=1 form).
  static Result<bool> EvalPredicate(const sql::Expr& expr, const Row& row,
                                    const Value* ancillary = nullptr);

  // `v` as an index key on a column of type `column`, so that an index
  // lookup answers `column relop v` as the comparison does: a BOOLEAN
  // becomes the INTEGER 0 or 1, and a number becomes a BOOLEAN only when it
  // is 0 or 1.  nullopt when no key stands for `v`: another type family
  // (which `=` never matches and an ordering comparison rejects), or a
  // number other than 0 or 1 against a BOOLEAN column.  NULL stays NULL.
  static std::optional<Value> CoerceKey(const DataType& column,
                                        const Value& v);

  // Shared truthiness rule for operator return values.
  static bool IsTruthy(const Value& v);

  // SQL LIKE with % (any run) and _ (any single character).
  static bool LikeMatch(const std::string& text, const std::string& pattern);

 private:
  static Result<Value> EvalBinary(const sql::Expr& expr, const Row& row,
                                  const Value* ancillary);
  static Result<Value> EvalFunction(const sql::Expr& expr, const Row& row,
                                    const Value* ancillary);
};

}  // namespace exi

#endif  // EXTIDX_EXEC_EVALUATOR_H_
