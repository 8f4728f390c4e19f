// Quickstart: both roles from the paper in one file.
//
//  1. Cartridge developer (§2.2): define a brand-new indexing scheme — a
//     trigram index for substring search — by implementing the ODCIIndex
//     routines, registering the functional implementation, and issuing
//     CREATE OPERATOR / CREATE INDEXTYPE.
//  2. End user (§2.3): CREATE INDEX ... INDEXTYPE IS ..., then query with
//     the new operator exactly like a built-in predicate.
//
// Build: cmake --build build && ./build/examples/quickstart

#include <cctype>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "core/odci.h"
#include "core/scan_context.h"
#include "engine/connection.h"

namespace {

using namespace exi;  // NOLINT — example brevity

// Lower-cased character trigrams of a string.
std::set<std::string> Trigrams(const std::string& text) {
  std::string lower;
  for (char c : text) lower.push_back(char(std::tolower(uint8_t(c))));
  std::set<std::string> out;
  for (size_t i = 0; i + 3 <= lower.size(); ++i) {
    out.insert(lower.substr(i, 3));
  }
  return out;
}

// --- The cartridge developer's ODCIIndex implementation (§2.2.3). ---
// Index data: an IOT (trigram VARCHAR, rid INTEGER), maintained through
// server callbacks; a scan intersects the posting sets of the query's
// trigrams and re-checks candidates against the actual column value.
class TrigramIndexMethods : public OdciIndex {
 public:
  const char* TraceLabel() const override { return "trigram"; }

  Status Create(const OdciIndexInfo& info, ServerContext& ctx) override {
    Schema schema;
    schema.AddColumn(Column{"tri", DataType::Varchar(3), true});
    schema.AddColumn(Column{"rid", DataType::Integer(), true});
    EXI_RETURN_IF_ERROR(ctx.CreateIot(Iot(info), schema, 2));
    int col = info.indexed_position();
    Status inner = Status::OK();
    EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
        info.table_name, [&](RowId rid, const Row& row) {
          inner = Index(info, rid, row[col], ctx);
          return inner.ok();
        }));
    return inner;
  }
  Status Alter(const OdciIndexInfo&, ServerContext&) override {
    return Status::OK();
  }
  Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) override {
    return ctx.IotTruncate(Iot(info));
  }
  Status Drop(const OdciIndexInfo& info, ServerContext& ctx) override {
    return ctx.DropIot(Iot(info));
  }

  Status Insert(const OdciIndexInfo& info, RowId rid, const Value& v,
                ServerContext& ctx) override {
    return Index(info, rid, v, ctx);
  }
  Status Delete(const OdciIndexInfo& info, RowId rid, const Value& v,
                ServerContext& ctx) override {
    if (v.is_null()) return Status::OK();
    for (const std::string& tri : Trigrams(v.AsVarchar())) {
      EXI_RETURN_IF_ERROR(ctx.IotDelete(
          Iot(info), {Value::Varchar(tri), Value::Integer(int64_t(rid))}));
    }
    return Status::OK();
  }
  Status Update(const OdciIndexInfo& info, RowId rid, const Value& old_v,
                const Value& new_v, ServerContext& ctx) override {
    EXI_RETURN_IF_ERROR(Delete(info, rid, old_v, ctx));
    return Insert(info, rid, new_v, ctx);
  }

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override {
    std::string needle = pred.args[0].AsVarchar();
    std::set<std::string> tris = Trigrams(needle);
    // Candidates: intersection of the trigram posting sets.
    std::set<RowId> candidates;
    bool first = true;
    for (const std::string& tri : tris) {
      std::set<RowId> rids;
      EXI_RETURN_IF_ERROR(ctx.IotScanPrefix(
          Iot(info), {Value::Varchar(tri)}, [&rids](const Row& row) {
            rids.insert(RowId(row[1].AsInteger()));
            return true;
          }));
      if (first) {
        candidates = std::move(rids);
        first = false;
      } else {
        std::set<RowId> both;
        for (RowId r : candidates) {
          if (rids.count(r)) both.insert(r);
        }
        candidates = std::move(both);
      }
      if (candidates.empty()) break;
    }
    // Exact re-check (short needles produce no trigrams => scan all).
    std::vector<RowId> matches;
    int col = info.indexed_position();
    auto check = [&](RowId rid, const Row& row) {
      const Value& v = row[col];
      if (!v.is_null() &&
          v.AsVarchar().find(needle) != std::string::npos) {
        matches.push_back(rid);
      }
    };
    if (tris.empty()) {
      EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
          info.table_name, [&](RowId rid, const Row& row) {
            check(rid, row);
            return true;
          }));
    } else {
      for (RowId rid : candidates) {
        Result<Row> row = ctx.GetBaseTableRow(info.table_name, rid);
        if (row.ok()) check(rid, *row);
      }
    }
    // Precompute-All with Return Handle: park the result set; Fetch pages
    // through it and Close releases it.
    return PrecomputedCursor::Park(std::move(matches));
  }

  Status Fetch(const OdciIndexInfo&, OdciScanContext& sctx, size_t max_rows,
               OdciFetchBatch* out, ServerContext&) override {
    return PrecomputedCursor::Fetch(sctx, max_rows, out);
  }

  Status Close(const OdciIndexInfo&, OdciScanContext& sctx,
               ServerContext&) override {
    return PrecomputedCursor::Close(sctx);
  }

 private:
  static std::string Iot(const OdciIndexInfo& info) {
    return info.index_name + "$trigrams";
  }
  static Status Index(const OdciIndexInfo& info, RowId rid, const Value& v,
                      ServerContext& ctx) {
    if (v.is_null()) return Status::OK();
    for (const std::string& tri : Trigrams(v.AsVarchar())) {
      EXI_RETURN_IF_ERROR(ctx.IotUpsert(
          Iot(info), {Value::Varchar(tri), Value::Integer(int64_t(rid))}));
    }
    return Status::OK();
  }
};

}  // namespace

int main() {
  Database db;
  Connection conn(&db);

  // ---- cartridge developer steps (§2.2) ----
  // 1. Functional implementation of the operator.
  Status st = db.catalog().functions().Register(
      "SubstrFn", [](const ValueList& args) -> Result<Value> {
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        return Value::Boolean(args[0].AsVarchar().find(
                                  args[1].AsVarchar()) != std::string::npos);
      });
  if (!st.ok()) return 1;
  // 2. The ODCIIndex implementation type.
  st = db.catalog().implementations().Register(
      "TrigramIndexMethods",
      [] { return std::make_shared<TrigramIndexMethods>(); });
  if (!st.ok()) return 1;
  // 3/4. Operator and indextype schema objects, via SQL DDL.
  conn.MustExecute(
      "CREATE OPERATOR Substr BINDING (VARCHAR, VARCHAR) RETURN BOOLEAN "
      "USING SubstrFn");
  conn.MustExecute(
      "CREATE INDEXTYPE TrigramIndexType FOR Substr(VARCHAR, VARCHAR) "
      "USING TrigramIndexMethods");

  // ---- end user steps (§2.3) ----
  conn.MustExecute(
      "CREATE TABLE employees (name VARCHAR(64), id INTEGER, resume "
      "VARCHAR(200))");
  conn.MustExecute(
      "INSERT INTO employees VALUES "
      "('alice', 1, 'Distributed databases and Oracle internals'), "
      "('bob', 2, 'Compilers, UNIX systems programming'), "
      "('carol', 3, 'Oracle performance tuning on UNIX')");
  conn.MustExecute(
      "CREATE INDEX resume_tri ON employees(resume) "
      "INDEXTYPE IS TrigramIndexType");
  conn.MustExecute("ANALYZE employees");

  QueryResult plan = conn.MustExecute(
      "EXPLAIN SELECT name FROM employees WHERE Substr(resume, 'UNIX')");
  std::printf("optimizer decision:\n%s\n", plan.message.c_str());

  QueryResult r = conn.MustExecute(
      "SELECT name, id FROM employees WHERE Substr(resume, 'UNIX') "
      "ORDER BY id");
  std::printf("employees mentioning UNIX:\n");
  for (const Row& row : r.rows) {
    std::printf("  %s (id %lld)\n", row[0].AsVarchar().c_str(),
                static_cast<long long>(row[1].AsInteger()));
  }

  // The index is maintained implicitly (§2.4.1).
  conn.MustExecute(
      "UPDATE employees SET resume = 'Moved to embedded Rust' WHERE id = 3");
  r = conn.MustExecute(
      "SELECT COUNT(*) FROM employees WHERE Substr(resume, 'UNIX')");
  std::printf("after carol's update: %lld match(es)\n",
              static_cast<long long>(r.rows[0][0].AsInteger()));
  return 0;
}
