#ifndef EXTIDX_CARTRIDGE_VARRAY_VARRAY_CARTRIDGE_H_
#define EXTIDX_CARTRIDGE_VARRAY_VARRAY_CARTRIDGE_H_

#include <string>

#include "cartridge/entry_index.h"
#include "engine/connection.h"

namespace exi::varr {

// Collection indexing (§3.1): "In Oracle8i, collection type columns cannot
// be indexed using built-in indexing schemes."  This indextype implements
// the paper's example —
//
//   Contains(VARRAY, elem_value): TRUE if the VARRAY contains an element
//   with the value elem_value
//   SELECT * FROM Employees WHERE Contains(Hobbies, 'Skiing');
//
// The operator is named VContains (the text cartridge owns Contains); the
// index is an element->rowid IOT maintained from the collection values.
class VarrayIndexMethods : public EntryIndexMethods {
 public:
  VarrayIndexMethods();

  const char* TraceLabel() const override { return "varray"; }

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;

 protected:
  // One (elem, rid) entry per distinct string element.
  Result<EntryMaker> Entries(const OdciIndexInfo& info) const override;
};

// Registers VContainsFn, a VARRAY(...) constructor function, and:
//   CREATE OPERATOR VContains BINDING (VARRAY OF VARCHAR, VARCHAR)
//     RETURN BOOLEAN USING VContainsFn;
//   CREATE INDEXTYPE VarrayIndexType FOR VContains(VARRAY OF VARCHAR,
//     VARCHAR) USING VarrayIndexMethods;
Status InstallVarrayCartridge(Connection* conn);

}  // namespace exi::varr

#endif  // EXTIDX_CARTRIDGE_VARRAY_VARRAY_CARTRIDGE_H_
