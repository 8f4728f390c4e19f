#include "cartridge/spatial/legacy_spatial.h"

#include <set>

#include "cartridge/spatial/tiling.h"

namespace exi::spatial {

Status LegacySpatialBuildIndex(Connection* conn, const std::string& table,
                               const std::string& geom_column,
                               int tile_level) {
  Database* db = conn->db();
  std::string idx_table = table + "_sdoindex";
  if (db->catalog().TableExists(idx_table)) {
    EXI_RETURN_IF_ERROR(db->DropTableCascade(idx_table, nullptr));
  }
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE TABLE " + idx_table +
                    " (rid INTEGER, sdo_code INTEGER)")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEX " + idx_table + "_code ON " + idx_table +
                    "(sdo_code)")
          .status());

  EXI_ASSIGN_OR_RETURN(HeapTable * base, db->catalog().GetTable(table));
  int col = base->schema().FindColumn(geom_column);
  if (col < 0) {
    return Status::NotFound("no column " + geom_column + " in " + table);
  }
  for (auto it = base->Scan(); it.Valid(); it.Next()) {
    const Value& v = it.row()[col];
    if (v.is_null()) continue;
    EXI_ASSIGN_OR_RETURN(Geometry g, FromValue(v));
    EXI_ASSIGN_OR_RETURN(std::vector<uint64_t> tiles,
                         CoverTiles(g, tile_level));
    for (uint64_t tile : tiles) {
      EXI_RETURN_IF_ERROR(
          db->InsertRow(idx_table,
                        {Value::Integer(int64_t(it.row_id())),
                         Value::Integer(int64_t(tile))},
                        nullptr)
              .status());
    }
  }
  EXI_RETURN_IF_ERROR(conn->Execute("ANALYZE " + idx_table).status());
  return Status::OK();
}

Result<std::vector<std::pair<RowId, RowId>>> LegacySpatialJoin(
    Connection* conn, const std::string& table_a,
    const std::string& geom_column_a, const std::string& table_b,
    const std::string& geom_column_b, const std::string& mask_text) {
  Database* db = conn->db();
  EXI_ASSIGN_OR_RETURN(uint8_t mask, ParseMask(mask_text));

  // Step 1 (user-visible SQL): tile-code equi-join of the two explicit
  // index tables.  The planner turns this into an index join on sdo_code.
  EXI_ASSIGN_OR_RETURN(
      QueryResult join,
      conn->Execute("SELECT a.rid, b.rid FROM " + table_a +
                    "_sdoindex a, " + table_b +
                    "_sdoindex b WHERE a.sdo_code = b.sdo_code"));

  // Step 2: DISTINCT on the candidate pairs (the paper's SELECT DISTINCT),
  // then the exact sdo_geom.Relate filter.
  std::set<std::pair<RowId, RowId>> candidates;
  for (const Row& row : join.rows) {
    candidates.emplace(RowId(row[0].AsInteger()), RowId(row[1].AsInteger()));
  }

  EXI_ASSIGN_OR_RETURN(HeapTable * base_a, db->catalog().GetTable(table_a));
  EXI_ASSIGN_OR_RETURN(HeapTable * base_b, db->catalog().GetTable(table_b));
  int col_a = base_a->schema().FindColumn(geom_column_a);
  int col_b = base_b->schema().FindColumn(geom_column_b);
  if (col_a < 0 || col_b < 0) {
    return Status::NotFound("geometry column missing");
  }

  std::vector<std::pair<RowId, RowId>> out;
  for (const auto& [rid_a, rid_b] : candidates) {
    Result<Row> row_a = base_a->Get(rid_a);
    Result<Row> row_b = base_b->Get(rid_b);
    if (!row_a.ok() || !row_b.ok()) continue;
    EXI_ASSIGN_OR_RETURN(Geometry ga, FromValue((*row_a)[col_a]));
    EXI_ASSIGN_OR_RETURN(Geometry gb, FromValue((*row_b)[col_b]));
    if (Relate(ga, gb, mask)) out.emplace_back(rid_a, rid_b);
  }
  return out;
}

}  // namespace exi::spatial
