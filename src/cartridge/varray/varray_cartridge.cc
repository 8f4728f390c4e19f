#include "cartridge/varray/varray_cartridge.h"

#include <set>

#include "core/scan_context.h"

namespace exi::varr {

VarrayIndexMethods::VarrayIndexMethods()
    : EntryIndexMethods("$etab",
                        Schema({{"elem", DataType::Varchar(256), true},
                                {"rid", DataType::Integer(), true}}),
                        2) {}

Result<EntryIndexMethods::EntryMaker> VarrayIndexMethods::Entries(
    const OdciIndexInfo&) const {
  return EntryMaker([](RowId rid, const Value& value,
                       std::vector<Row>* entries) -> Status {
    if (value.tag() != TypeTag::kVarray) {
      return Status::TypeMismatch("VarrayIndexType indexes VARRAY values");
    }
    std::set<std::string> elements;  // distinct
    for (const Value& e : value.AsVarray()) {
      if (!e.is_null() && e.tag() == TypeTag::kVarchar) {
        elements.insert(e.AsVarchar());
      }
    }
    for (const std::string& elem : elements) {
      entries->push_back({Value::Varchar(elem), Value::Integer(int64_t(rid))});
    }
    return Status::OK();
  });
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
      EntryTable(info.index_name),
      {Value::Varchar(pred.args[0].AsVarchar())}, [&](const Row& row) {
        matches.push_back(RowId(row[1].AsInteger()));
        return true;
      }));
  return PrecomputedCursor::Park(std::move(matches));
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
