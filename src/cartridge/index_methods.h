#ifndef EXTIDX_CARTRIDGE_INDEX_METHODS_H_
#define EXTIDX_CARTRIDGE_INDEX_METHODS_H_

#include <string>
#include <vector>

#include "core/odci.h"

namespace exi {

// The ODCIIndex routines the engine's protocol fixes, written once for
// every in-tree cartridge (§2.2.3).  The engine maintains an index slice
// with one array call per statement, so a cartridge writes BatchInsert and
// BatchDelete, and the per-row routines are their one-row calls.
// BatchUpdate deletes the old values, then inserts the new ones; override
// it when an update is cheaper than that.  Fetch pages out the
// PrecomputedCursor a Precompute-All Start parks; a cartridge whose Start
// sets up an incremental cursor overrides it.  Close releases the scan's
// workspace handle, whatever Start parked there.  A cartridge then writes
// Create/Alter/Truncate/Drop, BatchInsert/BatchDelete and Start.
class IndexMethods : public OdciIndex {
 public:
  Status Insert(const OdciIndexInfo& info, RowId rid, const Value& new_value,
                ServerContext& ctx) final {
    return BatchInsert(info, {rid}, {new_value}, ctx);
  }
  Status Delete(const OdciIndexInfo& info, RowId rid, const Value& old_value,
                ServerContext& ctx) final {
    return BatchDelete(info, {rid}, {old_value}, ctx);
  }
  Status Update(const OdciIndexInfo& info, RowId rid, const Value& old_value,
                const Value& new_value, ServerContext& ctx) final {
    return BatchUpdate(info, {rid}, {old_value}, {new_value}, ctx);
  }

  // Pure again: the OdciIndex defaults loop the per-row routines above.
  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& new_values,
                     ServerContext& ctx) override = 0;
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values,
                     ServerContext& ctx) override = 0;
  Status BatchUpdate(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, const ValueList& new_values,
                     ServerContext& ctx) override;

  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override;
  Status Close(const OdciIndexInfo& info, OdciScanContext& sctx,
               ServerContext& ctx) final;
};

// The LOB an index keeps its data in (§2.5), named by the row `key` of the
// index's "<index>$meta" IOT (key VARCHAR, val INTEGER).
//
// CreateMetaLob makes the IOT, the LOB and that row; if the row write
// fails it drops the LOB again, as Drop finds the LOB only through the
// row.  FindMetaLob is NotFound when the row is missing.  DropMetaLob
// drops the LOB the row names, if any (a failed Create may have left the
// IOT without its row), and then the IOT.
Result<LobId> CreateMetaLob(const std::string& index_name, const char* key,
                            ServerContext& ctx);
Result<LobId> FindMetaLob(const std::string& index_name, const char* key,
                          const ServerContext& ctx);
Status DropMetaLob(const std::string& index_name, const char* key,
                   ServerContext& ctx);

}  // namespace exi

#endif  // EXTIDX_CARTRIDGE_INDEX_METHODS_H_
