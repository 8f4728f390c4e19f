#ifndef EXTIDX_OPTIMIZER_PLANNER_H_
#define EXTIDX_OPTIMIZER_PLANNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/domain_index.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "optimizer/stats_cache.h"
#include "sql/ast.h"

namespace exi {

// A planned SELECT: the executable plan plus labels and the optimizer's
// explanation (every candidate access path with its estimated cost, and
// which one won — the paper's §2.4.2 decision made visible).
struct PlannedSelect {
  std::unique_ptr<ExecNode> root;
  std::vector<std::string> column_names;
  std::string explain;

  // Expressions the planner synthesized (e.g. for `*` expansion); plan
  // nodes hold raw pointers into these and into the statement's AST, so the
  // statement must outlive execution.
  std::vector<std::unique_ptr<sql::Expr>> owned_exprs;
};

// Cost-based planner.  For each operator predicate in the WHERE clause it
// weighs: sequential scan with per-row functional evaluation, built-in
// index scans, and domain-index scans priced through the indextype's
// ODCIStats routines.  Cheapest plan wins.
class Planner {
 public:
  // `default_fetch_batch` is the ODCIIndexFetch batch size used by
  // domain-index scan nodes (experiment E7 sweeps it).  `parallelism` is
  // the session's degree of parallelism (DESIGN.md §5): >1 widens the
  // domain-index join's probe window on capable cartridges; index scans
  // are serial at every setting.  `stats_cache` memoizes ODCIStats answers
  // per slice across statements (the Database owns it).
  Planner(Catalog* catalog, DomainIndexManager* domains,
          size_t default_fetch_batch, size_t parallelism,
          PlannerStatsCache* stats_cache)
      : catalog_(catalog),
        domains_(domains),
        fetch_batch_(default_fetch_batch),
        parallelism_(parallelism ? parallelism : 1),
        stats_cache_(stats_cache) {}

  // Binds and plans the statement.  The statement is annotated in place and
  // must outlive the returned plan.
  Result<PlannedSelect> PlanSelect(sql::SelectStmt* stmt);

  // Splits an expression into top-level AND conjuncts (exposed for tests).
  static void SplitConjuncts(sql::Expr* expr, std::vector<sql::Expr*>* out);

 private:
  struct TableEnv {
    std::vector<BoundTable> tables;
    std::vector<const HeapTable*> heaps;
  };

  Result<TableEnv> ResolveFrom(const sql::SelectStmt& stmt);

  // Plans the access path for one table given the conjuncts that reference
  // only that table (bound at slot offset `table.slot_offset`), and applies
  // the conjuncts the path does not consume as filters over it.  The node
  // yields the table's rows, table-width.  Appends candidate descriptions
  // to `explain`, and sets `*indexed` to whether the path reads the table
  // through an index that consumes a conjunct.
  Result<std::unique_ptr<ExecNode>> PlanTableAccess(
      const BoundTable& table, const HeapTable* heap,
      const std::vector<sql::Expr*>& conjuncts, std::string* explain,
      bool* indexed);

  // Plans the FROM tables, their joins and every WHERE conjunct.  A
  // conjunct is local to one table or joins tables.  Each table gets its
  // access path over its local conjuncts; a join step probes the inner
  // table through an index when a join conjunct allows it (the probe is
  // then the inner's access path), else it is a nested loop.  A join
  // conjunct no probe consumes filters the joined rows once its tables are
  // all joined.
  Result<std::unique_ptr<ExecNode>> PlanJoins(
      const TableEnv& env, const std::vector<sql::Expr*>& conjuncts,
      std::string* explain);

  // A probe of one inner table found by FindProbe.
  struct Probe {
    size_t conjunct;  // the join conjunct it consumes
    JoinProbe probe;
  };

  // A probe of the inner `table` for each row of the outer side, whose
  // columns are the slots [lo, hi): a usable domain index answering one of
  // the join conjuncts `joins`, else a single-column B-tree answering an
  // equality.  The probe's arguments read the outer side: a conjunct over
  // the inner table and constants alone is local to it, never a join
  // conjunct, so it is a scan of that table and never a probe.
  Result<std::optional<Probe>> FindProbe(const BoundTable& table, size_t lo,
                                         size_t hi,
                                         const std::vector<sql::Expr*>& joins,
                                         std::string* explain);

  Catalog* catalog_;
  DomainIndexManager* domains_;
  size_t fetch_batch_;
  size_t parallelism_;
  PlannerStatsCache* stats_cache_;
};

}  // namespace exi

#endif  // EXTIDX_OPTIMIZER_PLANNER_H_
