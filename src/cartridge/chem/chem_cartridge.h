#ifndef EXTIDX_CARTRIDGE_CHEM_CHEM_CARTRIDGE_H_
#define EXTIDX_CARTRIDGE_CHEM_CHEM_CARTRIDGE_H_

#include <string>

#include "cartridge/chem/fingerprint.h"
#include "cartridge/chem/molecule.h"
#include "cartridge/index_methods.h"
#include "engine/connection.h"

namespace exi::chem {

// The Daylight-style chemistry cartridge (§3.2.4): molecules stored as
// SMILES VARCHARs; the index is a packed array of (rowid, path
// fingerprint) records persisted either
//   * inside the database in a LOB   (PARAMETERS ':Storage lob', default) —
//     appended in place through the file-like LOB interface, transactional
//     via the engine's LOB undo, or
//   * outside the database in a file (PARAMETERS ':Storage file') — the
//     legacy arrangement.  The packed format has no in-place update, so
//     every maintenance operation rewrites the whole file (the
//     "intermediate write operations" the paper says the LOB migration
//     minimized), and the store escapes transaction control (§5) unless
//     the database-event handler below is registered.
//
// Operators:
//   MolContains(mol VARCHAR, sub VARCHAR) RETURN BOOLEAN
//     — substructure search: fingerprint screen, then exact subgraph
//       isomorphism on the survivors.
//   MolSim(mol VARCHAR, query VARCHAR) RETURN DOUBLE
//     — Tanimoto similarity; used as `MolSim(mol, 'CCO') >= 0.8`, which
//       the planner normalizes into scan bounds (§2.4.2's
//       "op(...) relop <value>" form) evaluated entirely on index data.
class ChemIndexMethods : public IndexMethods {
 public:
  // No Capabilities(): scans stay serial, as maintenance mutates one
  // shared packed store.
  const char* TraceLabel() const override { return "chem"; }

  Status Create(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Alter(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Drop(const OdciIndexInfo& info, ServerContext& ctx) override;

  // Array maintenance pays off especially here: the packed record store
  // has no random access, so BatchInsert concatenates every new
  // fingerprint into a single LOB append (or file rewrite), and
  // BatchDelete scans the store once for all the doomed rids.
  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& new_values, ServerContext& ctx) override;
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, ServerContext& ctx) override;

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;

  // True if the :Storage PARAMETER selects the external file store;
  // InvalidArgument unless it is lob (the default) or file.
  static Result<bool> UsesFileStorage(const std::string& parameters);
};

class ChemStats : public OdciStats {
 public:
  Result<double> Selectivity(const OdciIndexInfo& info,
                             const OdciPredInfo& pred, uint64_t table_rows,
                             ServerContext& ctx) override;
  Result<double> IndexCost(const OdciIndexInfo& info,
                           const OdciPredInfo& pred, double selectivity,
                           uint64_t table_rows, ServerContext& ctx) override;
};

// §5 remedy for file-backed indexes: registers a database-event handler
// that, on ROLLBACK, rebuilds the external fingerprint file from the
// (already rolled back) base table, restoring consistency the transaction
// manager cannot provide for external stores.  Returns the handler id for
// EventManager::Unregister.
uint64_t RegisterChemRollbackHandler(Database* db,
                                     const std::string& index_name);

// Registers MolContainsFn / MolSimFn and the DDL:
//   CREATE OPERATOR MolContains BINDING (VARCHAR, VARCHAR) RETURN BOOLEAN
//     USING MolContainsFn;
//   CREATE OPERATOR MolSim BINDING (VARCHAR, VARCHAR) RETURN DOUBLE
//     USING MolSimFn;
//   CREATE INDEXTYPE ChemIndexType FOR MolContains(VARCHAR, VARCHAR),
//     MolSim(VARCHAR, VARCHAR) USING ChemIndexMethods;
Status InstallChemCartridge(Connection* conn);

}  // namespace exi::chem

#endif  // EXTIDX_CARTRIDGE_CHEM_CHEM_CARTRIDGE_H_
