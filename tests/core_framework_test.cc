// Tests for src/core: the extensible indexing framework itself — callback
// guard restrictions (§2.5), scan workspace registry, operator/indextype
// registries, parameter parsing, and DomainIndexManager dispatch.

#include <gtest/gtest.h>

#include "cartridge/params.h"
#include "catalog/catalog.h"
#include "common/metrics.h"
#include "core/callback_guard.h"
#include "core/domain_index.h"
#include "core/scan_context.h"
#include "engine/connection.h"

namespace exi {
namespace {

Schema KvSchema() {
  Schema schema;
  schema.AddColumn(Column{"k", DataType::Varchar(16), true});
  schema.AddColumn(Column{"v", DataType::Integer(), true});
  return schema;
}

class CallbackGuardTest : public ::testing::Test {
 protected:
  CallbackGuardTest() {
    catalog_.set_external_root("/tmp/extidx_test_guard");
  }
  Catalog catalog_;
};

TEST_F(CallbackGuardTest, DefinitionModeAllowsEverything) {
  GuardedServerContext ctx(&catalog_, nullptr, CallbackMode::kDefinition);
  EXPECT_TRUE(ctx.CreateIot("x", KvSchema(), 1).ok());
  EXPECT_TRUE(ctx.IotInsert("x", {Value::Varchar("a"), Value::Integer(1)})
                  .ok());
  EXPECT_TRUE(ctx.IotTruncate("x").ok());
  EXPECT_TRUE(ctx.DropIot("x").ok());
  EXPECT_TRUE(ctx.CreateIndexTable("h", KvSchema()).ok());
  EXPECT_TRUE(ctx.CreateLob().ok());
}

TEST_F(CallbackGuardTest, MaintenanceModeForbidsDdl) {
  // Set up objects in definition mode first.
  {
    GuardedServerContext setup(&catalog_, nullptr,
                               CallbackMode::kDefinition);
    ASSERT_TRUE(setup.CreateIot("x", KvSchema(), 1).ok());
  }
  GuardedServerContext ctx(&catalog_, nullptr, CallbackMode::kMaintenance);
  // "Index maintenance routines can not execute DDL statements" (§2.5).
  EXPECT_EQ(ctx.CreateIot("y", KvSchema(), 1).code(),
            StatusCode::kCallbackViolation);
  EXPECT_EQ(ctx.DropIot("x").code(), StatusCode::kCallbackViolation);
  EXPECT_EQ(ctx.IotTruncate("x").code(), StatusCode::kCallbackViolation);
  EXPECT_EQ(ctx.CreateIndexTable("h", KvSchema()).code(),
            StatusCode::kCallbackViolation);
  // DML on index data is fine.
  EXPECT_TRUE(ctx.IotInsert("x", {Value::Varchar("a"), Value::Integer(1)})
                  .ok());
  EXPECT_TRUE(ctx.IotDelete("x", {Value::Varchar("a")}).ok());
  EXPECT_TRUE(ctx.CreateLob().ok());
}

TEST_F(CallbackGuardTest, ScanModeIsReadOnly) {
  {
    GuardedServerContext setup(&catalog_, nullptr,
                               CallbackMode::kDefinition);
    ASSERT_TRUE(setup.CreateIot("x", KvSchema(), 1).ok());
    ASSERT_TRUE(
        setup.IotInsert("x", {Value::Varchar("a"), Value::Integer(1)}).ok());
  }
  GuardedServerContext ctx(&catalog_, nullptr, CallbackMode::kScan);
  // "Index scan routines can only execute SQL query statements" (§2.5).
  EXPECT_EQ(
      ctx.IotInsert("x", {Value::Varchar("b"), Value::Integer(2)}).code(),
      StatusCode::kCallbackViolation);
  EXPECT_EQ(ctx.IotDelete("x", {Value::Varchar("a")}).code(),
            StatusCode::kCallbackViolation);
  EXPECT_EQ(ctx.CreateLob().status().code(),
            StatusCode::kCallbackViolation);
  LobId lob;
  {
    GuardedServerContext setup(&catalog_, nullptr,
                               CallbackMode::kDefinition);
    lob = *setup.CreateLob();
  }
  EXPECT_EQ(ctx.WriteLob(lob, 0, {1}).code(),
            StatusCode::kCallbackViolation);
  // Reads work.
  EXPECT_TRUE(ctx.IotGet("x", {Value::Varchar("a")}).ok());
  EXPECT_TRUE(ctx.ReadLobAll(lob).ok());
  int visits = 0;
  EXPECT_TRUE(ctx.IotScanPrefix("x", {Value::Varchar("a")},
                                [&visits](const Row&) {
                                  ++visits;
                                  return true;
                                })
                  .ok());
  EXPECT_EQ(visits, 1);
}

TEST_F(CallbackGuardTest, ExternalFilesBypassTheGuard) {
  // §5: the server cannot police external stores — even scan mode may
  // write, which is exactly the hazard the paper documents.
  GuardedServerContext ctx(&catalog_, nullptr, CallbackMode::kScan);
  Result<FileStore*> files = ctx.ExternalFiles("escape");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE((*files)->WriteFile("rogue.dat", {1, 2, 3}).ok());
  (void)(*files)->Clear();
}

TEST_F(CallbackGuardTest, UndoLoggingThroughContext) {
  Transaction txn(1);
  GuardedServerContext ctx(&catalog_, &txn, CallbackMode::kDefinition);
  ASSERT_TRUE(ctx.CreateIot("x", KvSchema(), 1).ok());
  ASSERT_TRUE(
      ctx.IotInsert("x", {Value::Varchar("a"), Value::Integer(1)}).ok());
  ASSERT_TRUE(
      ctx.IotUpsert("x", {Value::Varchar("a"), Value::Integer(2)}).ok());
  LobId lob = *ctx.CreateLob();
  ASSERT_TRUE(ctx.AppendLob(lob, {1, 2, 3}).ok());
  EXPECT_GT(txn.undo_depth(), 0u);

  txn.RunUndo();
  // IOT row gone, LOB gone.
  EXPECT_FALSE(ctx.IotGet("x", {Value::Varchar("a")}).ok());
  EXPECT_FALSE(catalog_.lobs().Exists(lob));
}

// A cartridge's base-table scan (index builds, text's NOT universe) is
// metered like the executor's: one table_rows_read per row it visits.
TEST_F(CallbackGuardTest, BaseTableScanCountsTheRowsItVisits) {
  ASSERT_TRUE(catalog_.CreateTable("base", KvSchema()).ok());
  HeapTable* base = *catalog_.GetTable("base");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(base->Insert({Value::Varchar("k"), Value::Integer(i)}).ok());
  }
  GuardedServerContext ctx(&catalog_, nullptr, CallbackMode::kScan);
  StorageMetrics before = GlobalMetrics().Snapshot();
  ASSERT_TRUE(
      ctx.ScanBaseTable("base", [](RowId, const Row&) { return true; }).ok());
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).table_rows_read, 5u);

  before = GlobalMetrics().Snapshot();
  int visits = 0;
  ASSERT_TRUE(ctx.ScanBaseTable("base", [&visits](RowId, const Row&) {
                   return ++visits < 2;
                 }).ok());
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).table_rows_read, 2u);
}

TEST(BtreeBuildMeteringTest, CreateIndexCountsTheRowsItReads) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(conn.Execute("CREATE TABLE t (k VARCHAR(16), v INTEGER)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn.Execute("INSERT INTO t VALUES ('k', " +
                             std::to_string(i) + ")")
                    .ok());
  }
  StorageMetrics before = GlobalMetrics().Snapshot();
  ASSERT_TRUE(conn.Execute("CREATE INDEX t_v ON t(v)").ok());
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).table_rows_read, 5u);
}

TEST(ScanWorkspaceRegistryTest, AllocateGetRelease) {
  ScanWorkspaceRegistry registry;
  auto ws = std::make_shared<int>(42);
  uint64_t h1 = registry.Allocate(ws);
  uint64_t h2 = registry.Allocate(std::make_shared<int>(7));
  EXPECT_NE(h1, h2);
  EXPECT_EQ(registry.active_count(), 2u);
  EXPECT_EQ(*(*registry.GetAs<int>(h1)), 42);
  ASSERT_TRUE(registry.Release(h1).ok());
  EXPECT_FALSE(registry.Get(h1).ok());
  EXPECT_EQ(registry.Release(h1).code(), StatusCode::kNotFound);
  ASSERT_TRUE(registry.Release(h2).ok());
  EXPECT_EQ(registry.active_count(), 0u);
}

TEST(IndexParametersTest, ParsingAndAccumulation) {
  IndexParameters params;
  params.SetAccumulatingKey("ignore");
  params.Parse(":Language English :Ignore the a an");
  EXPECT_EQ(params.Get("language"), "English");
  EXPECT_EQ(params.GetList("ignore").size(), 3u);
  // Second parse: language replaces, ignore accumulates.
  params.Parse(":Language German :Ignore COBOL");
  EXPECT_EQ(params.Get("LANGUAGE"), "German");
  EXPECT_EQ(params.GetList("ignore").size(), 4u);
  // Numeric accessors and defaults.
  params.Parse(":TileLevel 6 :Threshold 0.25");
  EXPECT_EQ(*params.GetInt("tilelevel", 1, 1, 16), 6);
  EXPECT_DOUBLE_EQ(params.GetDouble("threshold", 0.0), 0.25);
  EXPECT_EQ(*params.GetInt("missing", 9, 1, 16), 9);
  EXPECT_EQ(params.GetInt("tilelevel", 1, 1, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(params.Has("missing"));
  EXPECT_TRUE(params.Has("TileLevel"));
}

TEST(OperatorRegistryTest, BindingResolution) {
  OperatorDef op;
  op.name = "F";
  op.bindings.push_back(
      OperatorBinding{{DataType::Varchar(), DataType::Varchar()},
                      DataType::Boolean(),
                      "fn1"});
  op.bindings.push_back(OperatorBinding{
      {DataType::Double()}, DataType::Double(), "fn2"});
  EXPECT_EQ(op.MatchBinding({TypeTag::kVarchar, TypeTag::kVarchar}), 0);
  EXPECT_EQ(op.MatchBinding({TypeTag::kDouble}), 1);
  EXPECT_EQ(op.MatchBinding({TypeTag::kInteger}), 1);  // int -> double
  EXPECT_EQ(op.MatchBinding({TypeTag::kNull, TypeTag::kVarchar}), 0);
  EXPECT_EQ(op.MatchBinding({TypeTag::kVarchar}), -1);
  EXPECT_EQ(op.MatchBinding({}), -1);
}

TEST(RegistriesTest, FunctionAndImplementationLifecycle) {
  FunctionRegistry functions;
  EXPECT_TRUE(functions
                  .Register("f",
                            [](const ValueList&) -> Result<Value> {
                              return Value::Integer(1);
                            })
                  .ok());
  EXPECT_EQ(functions
                .Register("F", [](const ValueList&) -> Result<Value> {
                  return Value::Integer(2);
                })
                .code(),
            StatusCode::kAlreadyExists);  // case-insensitive
  EXPECT_TRUE(functions.Contains("F"));
  EXPECT_TRUE(functions.Get("f").ok());
  EXPECT_TRUE(functions.Unregister("f").ok());
  EXPECT_FALSE(functions.Contains("f"));

  ImplementationRegistry impls;
  EXPECT_FALSE(impls.GetIndexFactory("x").ok());
}

TEST(IndexTypeTest, SupportsChecksOperatorAndColumnType) {
  IndexTypeDef def;
  def.name = "T";
  def.operators.push_back(
      SupportedOperator{"Contains", {DataType::Varchar(),
                                     DataType::Varchar()}});
  def.operators.push_back(SupportedOperator{"Rank", {DataType::Double()}});
  EXPECT_TRUE(def.Supports("contains", DataType::Varchar(100)));
  EXPECT_FALSE(def.Supports("Contains", DataType::Integer()));
  EXPECT_TRUE(def.Supports("Rank", DataType::Double()));
  EXPECT_TRUE(def.Supports("Rank", DataType::Integer()));  // promotion
  EXPECT_FALSE(def.Supports("Nope", DataType::Varchar()));
}

// DomainIndexManager dispatch errors.
TEST(DomainIndexManagerTest, DispatchValidation) {
  Database db;
  Connection conn(&db);
  conn.MustExecute("CREATE TABLE t (a INTEGER)");
  conn.MustExecute("CREATE INDEX bi ON t(a)");
  DomainIndexManager& domains = db.domains();
  // Unknown index / non-domain index / unknown indextype.
  EXPECT_EQ(domains.DropIndex("nope", nullptr).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(domains.AlterIndex("bi", "", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      domains.CreateIndex("di", "t", "a", "NoSuchType", "", nullptr).code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      domains.CreateIndex("di", "nope", "a", "X", "", nullptr).code(),
      StatusCode::kNotFound);
  OdciPredInfo pred = OdciPredInfo::BooleanTrue("Op", {});
  EXPECT_FALSE(domains.StartScan("bi", pred).ok());
}

}  // namespace
}  // namespace exi
