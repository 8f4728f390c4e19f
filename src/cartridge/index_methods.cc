#include "cartridge/index_methods.h"

#include "core/scan_context.h"

namespace exi {

Status IndexMethods::BatchUpdate(const OdciIndexInfo& info,
                                 const std::vector<RowId>& rids,
                                 const ValueList& old_values,
                                 const ValueList& new_values,
                                 ServerContext& ctx) {
  // "ODCIIndexUpdate should delete the entries corresponding to the old
  // indexed column value ... and insert the new entries" (§2.2.3).
  EXI_RETURN_IF_ERROR(BatchDelete(info, rids, old_values, ctx));
  return BatchInsert(info, rids, new_values, ctx);
}

Status IndexMethods::Fetch(const OdciIndexInfo&, OdciScanContext& sctx,
                           size_t max_rows, OdciFetchBatch* out,
                           ServerContext&) {
  return PrecomputedCursor::Fetch(sctx, max_rows, out);
}

Status IndexMethods::Close(const OdciIndexInfo&, OdciScanContext& sctx,
                           ServerContext&) {
  return PrecomputedCursor::Close(sctx);
}

namespace {

std::string MetaTable(const std::string& index_name) {
  return index_name + "$meta";
}

}  // namespace

Result<LobId> CreateMetaLob(const std::string& index_name, const char* key,
                            ServerContext& ctx) {
  EXI_RETURN_IF_ERROR(ctx.CreateIot(
      MetaTable(index_name),
      Schema({{"key", DataType::Varchar(64), true},
              {"val", DataType::Integer(), true}}),
      1));
  EXI_ASSIGN_OR_RETURN(LobId lob, ctx.CreateLob());
  Status recorded = ctx.IotUpsert(
      MetaTable(index_name), {Value::Varchar(key), Value::Integer(int64_t(lob))});
  if (!recorded.ok()) {
    (void)ctx.DropLob(lob);
    return recorded;
  }
  return lob;
}

Result<LobId> FindMetaLob(const std::string& index_name, const char* key,
                          const ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(Row row,
                       ctx.IotGet(MetaTable(index_name), {Value::Varchar(key)}));
  return LobId(row[1].AsInteger());
}

Status DropMetaLob(const std::string& index_name, const char* key,
                   ServerContext& ctx) {
  Result<LobId> lob = FindMetaLob(index_name, key, ctx);
  if (lob.ok()) EXI_RETURN_IF_ERROR(ctx.DropLob(*lob));
  return ctx.DropIot(MetaTable(index_name));
}

}  // namespace exi
