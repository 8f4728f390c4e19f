#include "cartridge/varray/varray_cartridge.h"

#include <set>

#include "core/scan_context.h"

namespace exi::varr {

namespace {

std::string ElemTableName(const std::string& index_name) {
  return index_name + "$etab";
}

Schema ElemTableSchema() {
  Schema schema;
  schema.AddColumn(Column{"elem", DataType::Varchar(256), true});
  schema.AddColumn(Column{"rid", DataType::Integer(), true});
  return schema;
}

// Distinct string elements of a VARRAY value.
std::set<std::string> ElementsOf(const Value& v) {
  std::set<std::string> out;
  if (v.tag() != TypeTag::kVarray) return out;
  for (const Value& e : v.AsVarray()) {
    if (!e.is_null() && e.tag() == TypeTag::kVarchar) {
      out.insert(e.AsVarchar());
    }
  }
  return out;
}

}  // namespace

Status VarrayIndexMethods::Create(const OdciIndexInfo& info,
                                  ServerContext& ctx) {
  EXI_RETURN_IF_ERROR(
      ctx.CreateIot(ElemTableName(info.index_name), ElemTableSchema(), 2));
  int col = info.indexed_position();
  Status inner = Status::OK();
  EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
      info.table_name, [&](RowId rid, const Row& row) {
        for (const std::string& elem : ElementsOf(row[col])) {
          inner = ctx.IotUpsert(ElemTableName(info.index_name),
                                {Value::Varchar(elem),
                                 Value::Integer(int64_t(rid))});
          if (!inner.ok()) return false;
        }
        return true;
      }));
  return inner;
}

Status VarrayIndexMethods::Alter(const OdciIndexInfo& info,
                                 ServerContext& ctx) {
  (void)info;
  (void)ctx;
  return Status::OK();
}

Status VarrayIndexMethods::Truncate(const OdciIndexInfo& info,
                                    ServerContext& ctx) {
  return ctx.IotTruncate(ElemTableName(info.index_name));
}

Status VarrayIndexMethods::Drop(const OdciIndexInfo& info,
                                ServerContext& ctx) {
  return ctx.DropIot(ElemTableName(info.index_name));
}

Status VarrayIndexMethods::Insert(const OdciIndexInfo& info, RowId rid,
                                  const Value& new_value,
                                  ServerContext& ctx) {
  for (const std::string& elem : ElementsOf(new_value)) {
    EXI_RETURN_IF_ERROR(ctx.IotUpsert(
        ElemTableName(info.index_name),
        {Value::Varchar(elem), Value::Integer(int64_t(rid))}));
  }
  return Status::OK();
}

Status VarrayIndexMethods::Delete(const OdciIndexInfo& info, RowId rid,
                                  const Value& old_value,
                                  ServerContext& ctx) {
  for (const std::string& elem : ElementsOf(old_value)) {
    EXI_RETURN_IF_ERROR(ctx.IotDelete(
        ElemTableName(info.index_name),
        {Value::Varchar(elem), Value::Integer(int64_t(rid))}));
  }
  return Status::OK();
}

Status VarrayIndexMethods::Update(const OdciIndexInfo& info, RowId rid,
                                  const Value& old_value,
                                  const Value& new_value,
                                  ServerContext& ctx) {
  EXI_RETURN_IF_ERROR(Delete(info, rid, old_value, ctx));
  return Insert(info, rid, new_value, ctx);
}

Result<OdciScanContext> VarrayIndexMethods::Start(const OdciIndexInfo& info,
                                                  const OdciPredInfo& pred,
                                                  ServerContext& ctx) {
  if (pred.args.size() != 1 || pred.args[0].tag() != TypeTag::kVarchar) {
    return Status::InvalidArgument(
        "VContains index scan expects one string element");
  }
  std::vector<RowId> matches;
  EXI_RETURN_IF_ERROR(ctx.IotScanPrefix(
      ElemTableName(info.index_name),
      {Value::Varchar(pred.args[0].AsVarchar())}, [&](const Row& row) {
        matches.push_back(RowId(row[1].AsInteger()));
        return true;
      }));
  return PrecomputedCursor::Park(std::move(matches));
}

Status VarrayIndexMethods::Fetch(const OdciIndexInfo& info,
                                 OdciScanContext& sctx, size_t max_rows,
                                 OdciFetchBatch* out, ServerContext& ctx) {
  (void)info;
  (void)ctx;
  return PrecomputedCursor::Fetch(sctx, max_rows, out);
}

Status VarrayIndexMethods::Close(const OdciIndexInfo& info,
                                 OdciScanContext& sctx, ServerContext& ctx) {
  (void)info;
  (void)ctx;
  return PrecomputedCursor::Close(sctx);
}

Status InstallVarrayCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();

  // VARRAY('a', 'b', ...) constructor for SQL literals.
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "VARRAY_OF", [](const ValueList& args) -> Result<Value> {
        ValueList elems = args;
        return Value::Varray(std::move(elems));
      }));

  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "VContainsFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("VContains expects 2 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        if (args[0].tag() != TypeTag::kVarray) {
          return Status::TypeMismatch("VContains expects a VARRAY");
        }
        for (const Value& e : args[0].AsVarray()) {
          if (e.Equals(args[1])) return Value::Boolean(true);
        }
        return Value::Boolean(false);
      }));

  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "VarrayIndexMethods",
      [] { return std::make_shared<VarrayIndexMethods>(); }));

  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR VContains BINDING (VARRAY OF VARCHAR, "
                    "VARCHAR) RETURN BOOLEAN USING VContainsFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE VarrayIndexType FOR VContains(VARRAY "
                    "OF VARCHAR, VARCHAR) USING VarrayIndexMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::varr
