// Unit tests for src/storage: heap tables, LOB store, external file store.

#include <gtest/gtest.h>

#include "storage/file_store.h"
#include "storage/heap_table.h"
#include "storage/lob_store.h"

namespace exi {
namespace {

Schema TwoColSchema() {
  Schema schema;
  schema.AddColumn(Column{"id", DataType::Integer(), true});
  schema.AddColumn(Column{"name", DataType::Varchar(20), false});
  return schema;
}

TEST(HeapTableTest, InsertGetUpdateDelete) {
  HeapTable table("t", TwoColSchema());
  RowId r1 = *table.Insert({Value::Integer(1), Value::Varchar("a")});
  RowId r2 = *table.Insert({Value::Integer(2), Value::Varchar("b")});
  EXPECT_NE(r1, r2);
  EXPECT_EQ(table.row_count(), 2u);

  EXPECT_EQ((*table.Get(r1))[1].AsVarchar(), "a");
  ASSERT_TRUE(table.Update(r1, {Value::Integer(1), Value::Varchar("z")})
                  .ok());
  EXPECT_EQ((*table.Get(r1))[1].AsVarchar(), "z");

  ASSERT_TRUE(table.Delete(r1).ok());
  EXPECT_FALSE(table.Get(r1).ok());
  EXPECT_FALSE(table.Delete(r1).ok());  // double delete errors
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(HeapTableTest, RowIdsAreNeverReused) {
  HeapTable table("t", TwoColSchema());
  RowId r1 = *table.Insert({Value::Integer(1), Value::Null()});
  ASSERT_TRUE(table.Delete(r1).ok());
  RowId r2 = *table.Insert({Value::Integer(2), Value::Null()});
  EXPECT_GT(r2, r1);
}

TEST(HeapTableTest, ResurrectForUndo) {
  HeapTable table("t", TwoColSchema());
  RowId r1 = *table.Insert({Value::Integer(1), Value::Varchar("a")});
  Row saved = *table.Get(r1);
  ASSERT_TRUE(table.Delete(r1).ok());
  ASSERT_TRUE(table.Resurrect(r1, saved).ok());
  EXPECT_EQ((*table.Get(r1))[0].AsInteger(), 1);
  // Resurrecting a live row fails; never-allocated rowid fails.
  EXPECT_FALSE(table.Resurrect(r1, saved).ok());
  EXPECT_FALSE(table.Resurrect(999, saved).ok());
}

TEST(HeapTableTest, ScanSkipsDeleted) {
  HeapTable table("t", TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    (void)table.Insert({Value::Integer(i), Value::Null()});
  }
  ASSERT_TRUE(table.Delete(3).ok());
  ASSERT_TRUE(table.Delete(7).ok());
  int count = 0;
  for (auto it = table.Scan(); it.Valid(); it.Next()) {
    EXPECT_NE(it.row_id(), 3u);
    EXPECT_NE(it.row_id(), 7u);
    ++count;
  }
  EXPECT_EQ(count, 8);
}

TEST(HeapTableTest, SchemaEnforcedOnWrite) {
  HeapTable table("t", TwoColSchema());
  EXPECT_FALSE(table.Insert({Value::Null(), Value::Null()}).ok());
  EXPECT_FALSE(table.Insert({Value::Varchar("x"), Value::Null()}).ok());
  EXPECT_FALSE(table.Insert({Value::Integer(1)}).ok());
}

TEST(LobStoreTest, ByteRangeReadWrite) {
  LobStore lobs;
  LobId id = lobs.Create();
  ASSERT_TRUE(lobs.Write(id, 0, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(lobs.Append(id, {5, 6}).ok());
  EXPECT_EQ(*lobs.Size(id), 6u);

  auto mid = *lobs.Read(id, 2, 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0], 3);
  EXPECT_EQ(mid[2], 5);

  // Sparse write zero-extends.
  ASSERT_TRUE(lobs.Write(id, 10, {9}).ok());
  EXPECT_EQ(*lobs.Size(id), 11u);
  EXPECT_EQ((*lobs.Read(id, 8, 1))[0], 0);

  // Short read at EOF; read past EOF is empty.
  EXPECT_EQ(lobs.Read(id, 9, 100)->size(), 2u);
  EXPECT_TRUE(lobs.Read(id, 50, 10)->empty());
}

TEST(LobStoreTest, SnapshotRestoreAndDrop) {
  LobStore lobs;
  LobId id = lobs.Create();
  ASSERT_TRUE(lobs.Append(id, {1, 2, 3}).ok());
  auto snapshot = *lobs.Snapshot(id);
  ASSERT_TRUE(lobs.Write(id, 0, {9, 9}).ok());
  ASSERT_TRUE(lobs.Restore(id, snapshot).ok());
  EXPECT_EQ(*lobs.ReadAll(id), (std::vector<uint8_t>{1, 2, 3}));

  lobs.Drop(id);
  EXPECT_FALSE(lobs.Exists(id));
  EXPECT_FALSE(lobs.Read(id, 0, 1).ok());
  lobs.Drop(id);  // idempotent
}

TEST(FileStoreTest, RoundTripAndListing) {
  FileStore files("/tmp/extidx_test_filestore");
  ASSERT_TRUE(files.Clear().ok());
  ASSERT_TRUE(files.WriteFile("a.dat", {1, 2, 3}).ok());
  ASSERT_TRUE(files.WriteFile("b.dat", {}).ok());

  EXPECT_TRUE(files.FileExists("a.dat"));
  EXPECT_EQ(files.ReadFile("a.dat")->size(), 3u);
  EXPECT_TRUE(files.ReadFile("b.dat")->empty());
  EXPECT_FALSE(files.ReadFile("c.dat").ok());
  EXPECT_EQ(files.ListFiles().size(), 2u);

  ASSERT_TRUE(files.RemoveFile("a.dat").ok());
  EXPECT_FALSE(files.FileExists("a.dat"));
  ASSERT_TRUE(files.Clear().ok());
  EXPECT_TRUE(files.ListFiles().empty());
}

}  // namespace
}  // namespace exi
