#include "cartridge/spatial/spatial_cartridge.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "cartridge/spatial/rtree.h"
#include "core/scan_context.h"

namespace exi::spatial {

namespace {

// Parses the scan predicate common to both indextypes:
// args = (query geometry, 'mask=...').
Status ParseRelatePred(const OdciPredInfo& pred, Geometry* query,
                       uint8_t* mask) {
  if (pred.args.size() != 2) {
    return Status::InvalidArgument(
        "Sdo_Relate index scan expects (geometry, mask) arguments");
  }
  EXI_ASSIGN_OR_RETURN(*query, FromValue(pred.args[0]));
  if (pred.args[1].tag() != TypeTag::kVarchar) {
    return Status::InvalidArgument("Sdo_Relate mask must be a string");
  }
  EXI_ASSIGN_OR_RETURN(*mask, ParseMask(pred.args[1].AsVarchar()));
  return Status::OK();
}

// Phase 2 (exact filter): keeps candidates whose stored geometry satisfies
// the mask against the query geometry (§3.2.2 "applies an exact filter to
// these candidate rows").
Result<std::vector<RowId>> ExactFilter(const OdciIndexInfo& info,
                                       const std::vector<RowId>& candidates,
                                       const Geometry& query, uint8_t mask,
                                       ServerContext& ctx) {
  int col = info.indexed_position();
  if (col < 0) return Status::Internal("spatial index lost its column");
  std::vector<RowId> out;
  for (RowId rid : candidates) {
    Result<Row> row = ctx.GetBaseTableRow(info.table_name, rid);
    if (!row.ok()) continue;  // row deleted under us
    const Value& v = (*row)[col];
    if (v.is_null()) continue;
    EXI_ASSIGN_OR_RETURN(Geometry g, FromValue(v));
    if (Relate(g, query, mask)) out.push_back(rid);
  }
  return out;
}

}  // namespace

// ===========================================================================
// SpatialIndexMethods (tile-based)
// ===========================================================================

SpatialIndexMethods::SpatialIndexMethods()
    : EntryIndexMethods("$ttab",
                        Schema({{"tile", DataType::Integer(), true},
                                {"rid", DataType::Integer(), true}}),
                        2) {}

Result<int> SpatialIndexMethods::TileLevel(const std::string& parameters) {
  EXI_ASSIGN_OR_RETURN(
      int64_t level,
      IndexParameters(parameters).GetInt("TileLevel", 6, 1, kMaxTileLevel));
  return int(level);
}

Result<EntryIndexMethods::EntryMaker> SpatialIndexMethods::Entries(
    const OdciIndexInfo& info) const {
  EXI_ASSIGN_OR_RETURN(int level, TileLevel(info.parameters));
  return EntryMaker([level](RowId rid, const Value& value,
                            std::vector<Row>* entries) -> Status {
    EXI_ASSIGN_OR_RETURN(Geometry g, FromValue(value));
    EXI_ASSIGN_OR_RETURN(std::vector<uint64_t> tiles, CoverTiles(g, level));
    for (uint64_t tile : tiles) {
      entries->push_back(
          {Value::Integer(int64_t(tile)), Value::Integer(int64_t(rid))});
    }
    return Status::OK();
  });
}

Result<OdciScanContext> SpatialIndexMethods::Start(const OdciIndexInfo& info,
                                                   const OdciPredInfo& pred,
                                                   ServerContext& ctx) {
  Geometry query;
  uint8_t mask;
  EXI_RETURN_IF_ERROR(ParseRelatePred(pred, &query, &mask));

  // Phase 1: candidate rids whose tile cover intersects the query's.
  std::set<RowId> candidates;
  std::string iot = EntryTable(info.index_name);
  EXI_ASSIGN_OR_RETURN(int level, TileLevel(info.parameters));
  const TileCover cover = CoverOf(query, level);
  auto collect = [&candidates](const Row& row) {
    candidates.insert(RowId(row[1].AsInteger()));
    return true;
  };
  if (cover.count() <= kMaxCoverTiles) {
    EXI_ASSIGN_OR_RETURN(std::vector<uint64_t> tiles,
                         CoverTiles(query, level));
    for (uint64_t tile : tiles) {
      EXI_RETURN_IF_ERROR(
          ctx.IotScanPrefix(iot, {Value::Integer(int64_t(tile))}, collect));
    }
  } else {
    // A window too large to list tile by tile: one range scan over its
    // Z-order span, keeping the entries whose tile it covers.
    const CompositeKey lo = {Value::Integer(int64_t(cover.first()))};
    const CompositeKey hi = {Value::Integer(int64_t(cover.last()) + 1)};
    EXI_RETURN_IF_ERROR(
        ctx.IotScanRange(iot, &lo, true, &hi, false, [&](const Row& row) {
          return !cover.Contains(uint64_t(row[0].AsInteger())) ||
                 collect(row);
        }));
  }
  // Phase 2: exact relation on the candidates.
  EXI_ASSIGN_OR_RETURN(
      std::vector<RowId> matches,
      ExactFilter(info,
                  std::vector<RowId>(candidates.begin(), candidates.end()),
                  query, mask, ctx));
  return PrecomputedCursor::Park(std::move(matches));
}

// ===========================================================================
// RtreeIndexMethods (LOB-resident R-tree)
// ===========================================================================

namespace {

constexpr char kLobKey[] = "rtree_lob";

// Inserts (or, when `insert` is false, removes) each non-NULL value at
// its rid in the tree of the index's LOB, which it looks up at the first.
Status WriteTree(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                 const ValueList& values, bool insert, ServerContext& ctx) {
  std::optional<LobRTree> tree;
  for (size_t i = 0; i < rids.size(); ++i) {
    if (values[i].is_null()) continue;
    EXI_ASSIGN_OR_RETURN(Geometry g, FromValue(values[i]));
    if (!tree.has_value()) {
      EXI_ASSIGN_OR_RETURN(LobId lob,
                           FindMetaLob(info.index_name, kLobKey, ctx));
      tree.emplace(&ctx, lob);
    }
    EXI_RETURN_IF_ERROR(insert ? tree->Insert(g, rids[i])
                               : tree->Remove(g, rids[i]));
  }
  return Status::OK();
}

}  // namespace

Status RtreeIndexMethods::Create(const OdciIndexInfo& info,
                                 ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(LobId lob, CreateMetaLob(info.index_name, kLobKey, ctx));
  LobRTree tree(&ctx, lob);
  EXI_RETURN_IF_ERROR(tree.Clear());  // the empty tree
  int col = info.indexed_position();
  Status inner = Status::OK();
  EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
      info.table_name, [&](RowId rid, const Row& row) {
        const Value& v = row[col];
        if (v.is_null()) return true;
        Result<Geometry> g = FromValue(v);
        if (!g.ok()) {
          inner = g.status();
          return false;
        }
        inner = tree.Insert(*g, rid);
        return inner.ok();
      }));
  return inner;
}

Status RtreeIndexMethods::Alter(const OdciIndexInfo& info,
                                ServerContext& ctx) {
  (void)info;
  (void)ctx;
  return Status::OK();  // no parameters affect the R-tree
}

Status RtreeIndexMethods::Truncate(const OdciIndexInfo& info,
                                   ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(LobId lob, FindMetaLob(info.index_name, kLobKey, ctx));
  LobRTree tree(&ctx, lob);
  return tree.Clear();
}

Status RtreeIndexMethods::Drop(const OdciIndexInfo& info,
                               ServerContext& ctx) {
  return DropMetaLob(info.index_name, kLobKey, ctx);
}

Status RtreeIndexMethods::BatchInsert(const OdciIndexInfo& info,
                                      const std::vector<RowId>& rids,
                                      const ValueList& new_values,
                                      ServerContext& ctx) {
  return WriteTree(info, rids, new_values, /*insert=*/true, ctx);
}

Status RtreeIndexMethods::BatchDelete(const OdciIndexInfo& info,
                                      const std::vector<RowId>& rids,
                                      const ValueList& old_values,
                                      ServerContext& ctx) {
  return WriteTree(info, rids, old_values, /*insert=*/false, ctx);
}

Result<OdciScanContext> RtreeIndexMethods::Start(const OdciIndexInfo& info,
                                                 const OdciPredInfo& pred,
                                                 ServerContext& ctx) {
  Geometry query;
  uint8_t mask;
  EXI_RETURN_IF_ERROR(ParseRelatePred(pred, &query, &mask));
  EXI_ASSIGN_OR_RETURN(LobId lob, FindMetaLob(info.index_name, kLobKey, ctx));
  LobRTree tree(&ctx, lob);
  std::vector<RowId> candidates;
  EXI_RETURN_IF_ERROR(
      tree.Search(query, [&candidates](const Geometry&, uint64_t rid) {
        candidates.push_back(RowId(rid));
        return true;
      }));
  std::sort(candidates.begin(), candidates.end());
  EXI_ASSIGN_OR_RETURN(std::vector<RowId> matches,
                       ExactFilter(info, candidates, query, mask, ctx));
  return PrecomputedCursor::Park(std::move(matches));
}

// ===========================================================================
// SpatialStats
// ===========================================================================

Result<double> SpatialStats::Selectivity(const OdciIndexInfo& info,
                                         const OdciPredInfo& pred,
                                         uint64_t table_rows,
                                         ServerContext& ctx) {
  (void)info;
  (void)ctx;
  (void)table_rows;
  Geometry query;
  uint8_t mask;
  Status st = ParseRelatePred(pred, &query, &mask);
  if (!st.ok()) return 0.05;
  double frac = query.Area() / (kWorldSize * kWorldSize);
  // Interaction probability exceeds pure area fraction (objects have
  // extent); pad with a small constant.
  double sel = frac + 0.002;
  if (sel > 1.0) sel = 1.0;
  return sel;
}

Result<double> SpatialStats::IndexCost(const OdciIndexInfo& info,
                                       const OdciPredInfo& pred,
                                       double selectivity,
                                       uint64_t table_rows,
                                       ServerContext& ctx) {
  (void)ctx;
  Geometry query;
  uint8_t mask;
  double tiles = 4.0;
  if (ParseRelatePred(pred, &query, &mask).ok()) {
    EXI_ASSIGN_OR_RETURN(int level,
                         SpatialIndexMethods::TileLevel(info.parameters));
    tiles = double(CoverOf(query, level).count());
  }
  // Tile probes + candidate fetch + exact-filter work.
  return 10.0 + tiles * 2.0 + selectivity * double(table_rows) * 2.0;
}

// ===========================================================================
// Installation
// ===========================================================================

Status InstallSpatialCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();
  EXI_RETURN_IF_ERROR(catalog.RegisterObjectType(GeometryTypeDef()));

  // Constructor function, usable anywhere in SQL:
  //   SDO_GEOMETRY(xmin, ymin, xmax, ymax)
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "SDO_GEOMETRY", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 4) {
          return Status::InvalidArgument("SDO_GEOMETRY expects 4 numbers");
        }
        Geometry g;
        for (const Value& v : args) {
          if (v.is_null() || !DataType(v.tag()).is_numeric()) {
            return Status::TypeMismatch("SDO_GEOMETRY expects numbers");
          }
        }
        g.xmin = args[0].AsDouble();
        g.ymin = args[1].AsDouble();
        g.xmax = args[2].AsDouble();
        g.ymax = args[3].AsDouble();
        if (!g.Valid()) {
          return Status::InvalidArgument("degenerate SDO_GEOMETRY");
        }
        return ToValue(g);
      }));

  // Functional implementation of Sdo_Relate (§2.2.1).
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "SdoRelateFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 3) {
          return Status::InvalidArgument("Sdo_Relate expects 3 arguments");
        }
        if (args[0].is_null() || args[1].is_null() || args[2].is_null()) {
          return Value::Null();
        }
        EXI_ASSIGN_OR_RETURN(Geometry a, FromValue(args[0]));
        EXI_ASSIGN_OR_RETURN(Geometry b, FromValue(args[1]));
        if (args[2].tag() != TypeTag::kVarchar) {
          return Status::TypeMismatch("Sdo_Relate mask must be a string");
        }
        EXI_ASSIGN_OR_RETURN(uint8_t mask,
                             ParseMask(args[2].AsVarchar()));
        return Value::Boolean(Relate(a, b, mask));
      }));

  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "SpatialIndexMethods",
      [] { return std::make_shared<SpatialIndexMethods>(); },
      [] { return std::make_shared<SpatialStats>(); }));
  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "RtreeIndexMethods",
      [] { return std::make_shared<RtreeIndexMethods>(); },
      [] { return std::make_shared<SpatialStats>(); }));

  EXI_RETURN_IF_ERROR(
      conn->Execute(
              "CREATE OPERATOR Sdo_Relate BINDING (OBJECT SDO_GEOMETRY, "
              "OBJECT SDO_GEOMETRY, VARCHAR) RETURN BOOLEAN USING "
              "SdoRelateFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE SpatialIndexType FOR Sdo_Relate("
                    "OBJECT SDO_GEOMETRY, OBJECT SDO_GEOMETRY, VARCHAR) "
                    "USING SpatialIndexMethods")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE RtreeIndexType FOR Sdo_Relate("
                    "OBJECT SDO_GEOMETRY, OBJECT SDO_GEOMETRY, VARCHAR) "
                    "USING RtreeIndexMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::spatial
