#include "cartridge/domain_btree/domain_btree.h"

#include <algorithm>

#include "common/strings.h"
#include "core/scan_context.h"

namespace exi::dbt {

namespace {

// Incremental scan workspace: resumes the IOT cursor after the last
// returned (val, rid) key — the incremental-computation shape (§2.2.3),
// natural for an ordered structure.
struct DbtScanWorkspace {
  double lo = 0.0;
  double hi = 0.0;
  bool started = false;
  double last_val = 0.0;
  RowId last_rid = 0;
};

}  // namespace

DomainBtreeMethods::DomainBtreeMethods()
    : EntryIndexMethods("$ktab",
                        Schema({{"val", DataType::Double(), true},
                                {"rid", DataType::Integer(), true}}),
                        2) {}

Result<EntryIndexMethods::EntryMaker> DomainBtreeMethods::Entries(
    const OdciIndexInfo&) const {
  return EntryMaker([](RowId rid, const Value& value,
                       std::vector<Row>* entries) -> Status {
    entries->push_back(
        {Value::Double(value.AsDouble()), Value::Integer(int64_t(rid))});
    return Status::OK();
  });
}

Result<OdciScanContext> DomainBtreeMethods::Start(const OdciIndexInfo& info,
                                                  const OdciPredInfo& pred,
                                                  ServerContext& ctx) {
  (void)info;
  (void)ctx;
  auto ws = std::make_shared<DbtScanWorkspace>();
  if (EqualsIgnoreCase(pred.operator_name, "DEq")) {
    if (pred.args.size() != 1 ||
        !DataType(pred.args[0].tag()).is_numeric()) {
      return Status::InvalidArgument("DEq expects one numeric argument");
    }
    ws->lo = pred.args[0].AsDouble();
    ws->hi = ws->lo;
  } else if (EqualsIgnoreCase(pred.operator_name, "DBetween")) {
    if (pred.args.size() != 2 ||
        !DataType(pred.args[0].tag()).is_numeric() ||
        !DataType(pred.args[1].tag()).is_numeric()) {
      return Status::InvalidArgument(
          "DBetween expects two numeric arguments");
    }
    ws->lo = pred.args[0].AsDouble();
    ws->hi = pred.args[1].AsDouble();
  } else {
    return Status::NotSupported("domain btree cannot evaluate " +
                                pred.operator_name);
  }
  OdciScanContext sctx;
  sctx.handle = ScanWorkspaceRegistry::Global().Allocate(ws);
  return sctx;
}

Status DomainBtreeMethods::Fetch(const OdciIndexInfo& info,
                                 OdciScanContext& sctx, size_t max_rows,
                                 OdciFetchBatch* out, ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(
      std::shared_ptr<DbtScanWorkspace> ws,
      ScanWorkspaceRegistry::Global().GetAs<DbtScanWorkspace>(sctx.handle));
  CompositeKey resume = {Value::Double(ws->last_val),
                         Value::Integer(int64_t(ws->last_rid))};
  CompositeKey start = {Value::Double(ws->lo)};
  CompositeKey hi = {Value::Double(ws->hi),
                     Value::Integer(int64_t(~0ULL >> 1))};
  const CompositeKey* lo_key = ws->started ? &resume : &start;
  // The scan visits one row past a full batch, so a batch that holds the
  // range's last key is marked `last`.
  bool more = false;
  EXI_RETURN_IF_ERROR(ctx.IotScanRange(
      EntryTable(info.index_name), lo_key,
      /*lo_inclusive=*/!ws->started, &hi, true, [&](const Row& row) {
        if (out->rids.size() == max_rows) {
          more = true;
          return false;
        }
        out->rids.push_back(RowId(row[1].AsInteger()));
        ws->last_val = row[0].AsDouble();
        ws->last_rid = RowId(row[1].AsInteger());
        return true;
      }));
  if (!out->rids.empty()) ws->started = true;
  out->last = !more;
  return Status::OK();
}

Result<double> DomainBtreeStats::Selectivity(const OdciIndexInfo& info,
                                             const OdciPredInfo& pred,
                                             uint64_t table_rows,
                                             ServerContext& ctx) {
  (void)info;
  (void)ctx;
  if (table_rows == 0) return 0.0;
  if (EqualsIgnoreCase(pred.operator_name, "DEq")) {
    return 1.0 / double(table_rows);
  }
  return 0.1;  // range default
}

Result<double> DomainBtreeStats::IndexCost(const OdciIndexInfo& info,
                                           const OdciPredInfo& pred,
                                           double selectivity,
                                           uint64_t table_rows,
                                           ServerContext& ctx) {
  (void)info;
  (void)pred;
  (void)ctx;
  return 10.0 + selectivity * double(table_rows);
}

Status InstallDomainBtreeCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "DEqFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("DEq expects 2 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        return Value::Boolean(args[0].AsDouble() == args[1].AsDouble());
      }));
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "DBetweenFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 3) {
          return Status::InvalidArgument("DBetween expects 3 arguments");
        }
        if (args[0].is_null() || args[1].is_null() || args[2].is_null()) {
          return Value::Null();
        }
        double v = args[0].AsDouble();
        return Value::Boolean(v >= args[1].AsDouble() &&
                              v <= args[2].AsDouble());
      }));
  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "DomainBtreeMethods",
      [] { return std::make_shared<DomainBtreeMethods>(); },
      [] { return std::make_shared<DomainBtreeStats>(); }));
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR DEq BINDING (DOUBLE, DOUBLE) RETURN "
                    "BOOLEAN USING DEqFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR DBetween BINDING (DOUBLE, DOUBLE, "
                    "DOUBLE) RETURN BOOLEAN USING DBetweenFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE DomainBtreeType FOR DEq(DOUBLE, "
                    "DOUBLE), DBetween(DOUBLE, DOUBLE, DOUBLE) USING "
                    "DomainBtreeMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::dbt
