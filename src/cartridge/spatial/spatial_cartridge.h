#ifndef EXTIDX_CARTRIDGE_SPATIAL_SPATIAL_CARTRIDGE_H_
#define EXTIDX_CARTRIDGE_SPATIAL_SPATIAL_CARTRIDGE_H_

#include <string>

#include "cartridge/entry_index.h"
#include "cartridge/params.h"
#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/tiling.h"
#include "core/odci.h"
#include "engine/connection.h"

namespace exi::spatial {

// The Spatial-Data-Cartridge-style indexing scheme (§3.2.2): each geometry
// is tessellated into grid tiles; (tile, rid) pairs live in an IOT; an
// Sdo_Relate scan runs the paper's two phases — tile-cover candidate
// lookup, then an exact relation filter on the candidates' geometries.
//
// PARAMETERS:  ':TileLevel <n>'  grid refinement (default 6 => 64x64).
class SpatialIndexMethods : public EntryIndexMethods {
 public:
  SpatialIndexMethods();

  // Start/Fetch/Close touch no mutable cartridge state (DESIGN.md §5).
  OdciCapabilities Capabilities() const override {
    return {.parallel_scan = true};
  }

  const char* TraceLabel() const override { return "spatial_tile"; }

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;

  // The :TileLevel PARAMETER (default 6); InvalidArgument unless it is an
  // integer in [1, kMaxTileLevel].
  static Result<int> TileLevel(const std::string& parameters);

 protected:
  // One (tile, rid) entry per tile of the geometry's cover at :TileLevel.
  Result<EntryMaker> Entries(const OdciIndexInfo& info) const override;
};

// R-tree-backed indextype for the same Sdo_Relate operator: index data in
// a LOB (§2.5 storage option), structure in cartridge/spatial/rtree.h.
// Swapping indextypes requires no query changes — the §3.2.2 claim.
class RtreeIndexMethods : public IndexMethods {
 public:
  const char* TraceLabel() const override { return "spatial_rtree"; }

  Status Create(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Alter(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Drop(const OdciIndexInfo& info, ServerContext& ctx) override;

  // One LOB lookup and one tree per call, then one tree insert or remove
  // per non-NULL value.
  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& new_values, ServerContext& ctx) override;
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, ServerContext& ctx) override;

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;
};

// Area-fraction selectivity and tile/page-based cost (shared by both
// spatial indextypes).
class SpatialStats : public OdciStats {
 public:
  Result<double> Selectivity(const OdciIndexInfo& info,
                             const OdciPredInfo& pred, uint64_t table_rows,
                             ServerContext& ctx) override;
  Result<double> IndexCost(const OdciIndexInfo& info,
                           const OdciPredInfo& pred, double selectivity,
                           uint64_t table_rows, ServerContext& ctx) override;
};

// Registers the SDO_GEOMETRY object type, the SDO_GEOMETRY(x1,y1,x2,y2)
// constructor function, the Sdo_Relate functional implementation, both
// implementation types, and the cartridge DDL:
//   CREATE OPERATOR Sdo_Relate BINDING (OBJECT SDO_GEOMETRY,
//     OBJECT SDO_GEOMETRY, VARCHAR) RETURN BOOLEAN USING SdoRelateFn;
//   CREATE INDEXTYPE SpatialIndexType FOR Sdo_Relate(...) USING
//     SpatialIndexMethods;
//   CREATE INDEXTYPE RtreeIndexType FOR Sdo_Relate(...) USING
//     RtreeIndexMethods;
Status InstallSpatialCartridge(Connection* conn);

}  // namespace exi::spatial

#endif  // EXTIDX_CARTRIDGE_SPATIAL_SPATIAL_CARTRIDGE_H_
