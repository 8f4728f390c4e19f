#ifndef EXTIDX_EXEC_EXPRESSION_H_
#define EXTIDX_EXEC_EXPRESSION_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/ast.h"
#include "types/schema.h"

namespace exi {

// A table participating in a statement: its binding alias and where its
// columns start in the flattened input row handed to expressions.
struct BoundTable {
  std::string alias;       // effective name used for qualification
  std::string table_name;  // underlying table
  const Schema* schema;
  size_t slot_offset;      // first column's slot in the flattened row
};

// Resolves names and types in a parsed expression tree, annotating Expr
// nodes in place (slot, attr_index, result_type, and for a call its kind
// and the callable it runs).  A call binds to the function registered at
// bind time; registering or unregistering a function later affects only
// statements bound after that.
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  // Binds `expr` against the given table bindings.
  Status Bind(sql::Expr* expr, const std::vector<BoundTable>& tables) const;

  // Binds an expression that may not reference any column (INSERT values).
  Status BindConstant(sql::Expr* expr) const {
    return Bind(expr, {});
  }

 private:
  Status BindColumnRef(sql::Expr* expr,
                       const std::vector<BoundTable>& tables) const;
  Status BindFunctionCall(sql::Expr* expr,
                          const std::vector<BoundTable>& tables) const;

  const Catalog* catalog_;
};

}  // namespace exi

#endif  // EXTIDX_EXEC_EXPRESSION_H_
