#ifndef EXTIDX_CARTRIDGE_DOMAIN_BTREE_DOMAIN_BTREE_H_
#define EXTIDX_CARTRIDGE_DOMAIN_BTREE_DOMAIN_BTREE_H_

#include <string>

#include "cartridge/entry_index.h"
#include "engine/connection.h"

namespace exi::dbt {

// A B-tree re-implemented *through* the extensible indexing framework:
// the same ordered-key access structure the engine has natively, but with
// index data in an IOT and every operation dispatched through ODCIIndex
// routines and SQL callbacks.  This is the ablation for the paper's §4
// design argument — integrating access methods via SQL callbacks instead
// of low-level interfaces "can cause performance degradation" that batch
// interfaces keep tolerable.  Experiment E10 measures that overhead
// against the native B-tree.
//
// Operators (on INTEGER/DOUBLE columns):
//   DEq(col, v)          value equality
//   DBetween(col, lo, hi) closed-range membership
class DomainBtreeMethods : public EntryIndexMethods {
 public:
  DomainBtreeMethods();

  const char* TraceLabel() const override { return "domain_btree"; }

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;
  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override;

 protected:
  // One (val, rid) entry per value.
  Result<EntryMaker> Entries(const OdciIndexInfo& info) const override;
};

class DomainBtreeStats : public OdciStats {
 public:
  Result<double> Selectivity(const OdciIndexInfo& info,
                             const OdciPredInfo& pred, uint64_t table_rows,
                             ServerContext& ctx) override;
  Result<double> IndexCost(const OdciIndexInfo& info,
                           const OdciPredInfo& pred, double selectivity,
                           uint64_t table_rows, ServerContext& ctx) override;
};

// Registers DEqFn/DBetweenFn and:
//   CREATE OPERATOR DEq BINDING (INTEGER, INTEGER) RETURN BOOLEAN ...
//   CREATE OPERATOR DBetween BINDING (INTEGER, INTEGER, INTEGER) ...
//   CREATE INDEXTYPE DomainBtreeType FOR DEq(...), DBetween(...) USING
//     DomainBtreeMethods;
Status InstallDomainBtreeCartridge(Connection* conn);

}  // namespace exi::dbt

#endif  // EXTIDX_CARTRIDGE_DOMAIN_BTREE_DOMAIN_BTREE_H_
