// Unit tests for src/catalog: dictionary lifecycle, dependency rules
// (operators referenced by indextypes, indextypes used by indexes),
// case-insensitive naming, and cartridge storage namespaces.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "index/bptree.h"

namespace exi {
namespace {

Schema OneIntSchema() {
  Schema schema;
  schema.AddColumn(Column{"a", DataType::Integer(), false});
  return schema;
}

TEST(CatalogTest, TableLifecycle) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("T", OneIntSchema()).ok());
  EXPECT_EQ(catalog.CreateTable("t", OneIntSchema()).code(),
            StatusCode::kAlreadyExists);  // case-insensitive
  EXPECT_TRUE(catalog.TableExists("t"));
  EXPECT_TRUE(catalog.GetTable("T").ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  ASSERT_TRUE(catalog.DropTable("T").ok());
  EXPECT_FALSE(catalog.TableExists("T"));
  EXPECT_EQ(catalog.DropTable("T").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, DropTableBlockedByIndexes) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", OneIntSchema()).ok());
  auto info = std::make_unique<IndexInfo>();
  info->name = "idx";
  info->table = "t";
  info->columns = {"a"};
  info->builtin = std::make_unique<BTreeIndex>("idx", OneIntSchema(),
                                               std::vector<size_t>{0});
  ASSERT_TRUE(catalog.AddIndex(std::move(info)).ok());
  EXPECT_EQ(catalog.DropTable("t").code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(catalog.RemoveIndex("idx").ok());
  EXPECT_TRUE(catalog.DropTable("t").ok());
}

TEST(CatalogTest, OperatorIndextypeDependencies) {
  Catalog catalog;
  ASSERT_TRUE(catalog.functions()
                  .Register("fn",
                            [](const ValueList&) -> Result<Value> {
                              return Value::Boolean(true);
                            })
                  .ok());
  // Operator with an unregistered function is rejected.
  OperatorDef bad;
  bad.name = "Op";
  bad.bindings.push_back(
      OperatorBinding{{DataType::Varchar()}, DataType::Boolean(), "nope"});
  EXPECT_EQ(catalog.CreateOperator(bad).code(), StatusCode::kNotFound);

  OperatorDef good = bad;
  good.bindings[0].function_name = "fn";
  ASSERT_TRUE(catalog.CreateOperator(good).ok());

  // Indextype must reference existing operators and implementations.
  IndexTypeDef it;
  it.name = "IT";
  it.operators.push_back(SupportedOperator{"Op", {DataType::Varchar()}});
  it.implementation = "Impl";
  EXPECT_EQ(catalog.CreateIndexType(it).code(), StatusCode::kNotFound);
  ASSERT_TRUE(catalog.implementations()
                  .Register("Impl", [] { return nullptr; })
                  .ok());
  ASSERT_TRUE(catalog.CreateIndexType(it).ok());

  // An operator referenced by an indextype cannot be dropped.
  EXPECT_EQ(catalog.DropOperator("Op").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(catalog.DropIndexType("IT").ok());
  EXPECT_TRUE(catalog.DropOperator("Op").ok());
}

TEST(CatalogTest, IndexLookupByTableAndColumn) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", OneIntSchema()).ok());
  for (const char* name : {"i1", "i2"}) {
    auto info = std::make_unique<IndexInfo>();
    info->name = name;
    info->table = "t";
    info->columns = {"a"};
    info->builtin = std::make_unique<BTreeIndex>(
        name, OneIntSchema(), std::vector<size_t>{0});
    ASSERT_TRUE(catalog.AddIndex(std::move(info)).ok());
  }
  EXPECT_EQ(catalog.IndexesOnTable("t").size(), 2u);
  EXPECT_EQ(catalog.IndexesOnColumn("t", "A").size(), 2u);
  EXPECT_TRUE(catalog.IndexesOnColumn("t", "b").empty());
  EXPECT_TRUE(catalog.IndexExists("I1"));
  // Duplicate index name rejected; index on missing table rejected.
  auto dup = std::make_unique<IndexInfo>();
  dup->name = "i1";
  dup->table = "t";
  EXPECT_EQ(catalog.AddIndex(std::move(dup)).code(),
            StatusCode::kAlreadyExists);
  auto orphan = std::make_unique<IndexInfo>();
  orphan->name = "i3";
  orphan->table = "missing";
  EXPECT_EQ(catalog.AddIndex(std::move(orphan)).code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ToOdciInfoCarriesPositionsAndTypes) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn(Column{"x", DataType::Integer(), false});
  schema.AddColumn(Column{"body", DataType::Varchar(100), false});
  ASSERT_TRUE(catalog.CreateTable("t", schema).ok());
  IndexInfo info;
  info.name = "idx";
  info.table = "t";
  info.columns = {"body"};
  info.parameters = ":Language English";
  OdciIndexInfo odci = info.ToOdciInfo(schema);
  EXPECT_EQ(odci.index_name, "idx");
  EXPECT_EQ(odci.table_name, "t");
  EXPECT_EQ(odci.indexed_position(), 1);
  EXPECT_EQ(odci.column_types[0].tag(), TypeTag::kVarchar);
  EXPECT_EQ(odci.parameters, ":Language English");
}

TEST(CatalogTest, CartridgeStorageNamespaces) {
  Catalog catalog;
  catalog.set_external_root("/tmp/extidx_test_catalog");
  Schema schema = OneIntSchema();
  ASSERT_TRUE(catalog.CreateIot("iot1", schema, 1).ok());
  EXPECT_EQ(catalog.CreateIot("IOT1", schema, 1).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.CreateIot("bad", schema, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(catalog.IotExists("iot1"));
  ASSERT_TRUE(catalog.DropIot("iot1").ok());
  EXPECT_FALSE(catalog.IotExists("iot1"));

  ASSERT_TRUE(catalog.CreateIndexTable("h1", schema).ok());
  EXPECT_TRUE(catalog.IndexTableExists("H1"));
  ASSERT_TRUE(catalog.DropIndexTable("h1").ok());

  // File stores are created lazily and cached.
  FileStore* fs1 = *catalog.GetOrCreateFileStore("store");
  FileStore* fs2 = *catalog.GetOrCreateFileStore("STORE");
  EXPECT_EQ(fs1, fs2);

  // LOB store is engine-wide.
  LobId lob = catalog.lobs().Create();
  EXPECT_TRUE(catalog.lobs().Exists(lob));
}

TEST(CatalogTest, ObjectTypes) {
  Catalog catalog;
  ObjectTypeDef def;
  def.name = "GEOM";
  def.attributes = {{"xmin", DataType::Double()},
                    {"ymin", DataType::Double()}};
  ASSERT_TRUE(catalog.RegisterObjectType(def).ok());
  EXPECT_EQ(catalog.RegisterObjectType(def).code(),
            StatusCode::kAlreadyExists);
  const ObjectTypeDef* got = *catalog.GetObjectType("geom");
  EXPECT_EQ(got->FindAttribute("YMIN"), 1);
  EXPECT_EQ(got->FindAttribute("z"), -1);
  EXPECT_FALSE(catalog.GetObjectType("missing").ok());
}

}  // namespace
}  // namespace exi
