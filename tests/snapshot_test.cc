// Tests for logical snapshots: round-tripping schemas, rows (all value
// families), and index definitions, with domain indexes rebuilt through
// ODCIIndexCreate on load.

#include <gtest/gtest.h>

#include <cstdio>

#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "engine/connection.h"
#include "engine/snapshot.h"
#include "temp_path.h"

namespace exi {
namespace {

void InstallAll(Connection* conn) {
  ASSERT_TRUE(text::InstallTextCartridge(conn).ok());
  ASSERT_TRUE(spatial::InstallSpatialCartridge(conn).ok());
  ASSERT_TRUE(varr::InstallVarrayCartridge(conn).ok());
}

TEST(SnapshotTest, RoundTripsAllValueFamilies) {
  ScopedTempPath path("extidx_test_snapshot.bin");
  Database src;
  Connection src_conn(&src);
  InstallAll(&src_conn);
  src_conn.MustExecute(
      "CREATE TABLE t (i INTEGER NOT NULL, d DOUBLE, s VARCHAR(50), "
      "b BOOLEAN, arr VARRAY OF VARCHAR, g OBJECT SDO_GEOMETRY)");
  src_conn.MustExecute(
      "INSERT INTO t VALUES (1, 2.5, 'hello', TRUE, "
      "VARRAY_OF('a', 'b'), SDO_GEOMETRY(1, 2, 3, 4))");
  src_conn.MustExecute(
      "INSERT INTO t VALUES (2, NULL, NULL, FALSE, NULL, NULL)");
  ASSERT_TRUE(SaveSnapshot(&src, path.c_str()).ok());

  Database dst;
  Connection dst_conn(&dst);
  InstallAll(&dst_conn);
  ASSERT_TRUE(LoadSnapshot(&dst, &dst_conn, path.c_str()).ok());

  QueryResult r = dst_conn.MustExecute("SELECT * FROM t ORDER BY i");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 2.5);
  EXPECT_EQ(r.rows[0][2].AsVarchar(), "hello");
  EXPECT_TRUE(r.rows[0][3].AsBoolean());
  EXPECT_EQ(r.rows[0][4].AsVarray().size(), 2u);
  EXPECT_EQ(r.rows[0][5].AsObject().type_name, "SDO_GEOMETRY");
  EXPECT_TRUE(r.rows[1][1].is_null());
  // NOT NULL constraint survived.
  EXPECT_FALSE(
      dst_conn.Execute("INSERT INTO t VALUES (NULL, 1, 'x', TRUE, NULL, "
                       "NULL)")
          .ok());
}

TEST(SnapshotTest, DomainIndexesRebuiltAndQueryable) {
  ScopedTempPath path("extidx_test_snapshot.bin");
  Database src;
  Connection src_conn(&src);
  InstallAll(&src_conn);
  src_conn.MustExecute(
      "CREATE TABLE docs (id INTEGER, body VARCHAR(100))");
  src_conn.MustExecute(
      "INSERT INTO docs VALUES (1, 'the needle'), (2, 'plain hay')");
  src_conn.MustExecute(
      "CREATE INDEX d_text ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Ignore the')");
  src_conn.MustExecute("CREATE INDEX d_id ON docs(id)");
  src_conn.MustExecute("ANALYZE docs");
  ASSERT_TRUE(SaveSnapshot(&src, path.c_str()).ok());

  Database dst;
  Connection dst_conn(&dst);
  InstallAll(&dst_conn);
  ASSERT_TRUE(LoadSnapshot(&dst, &dst_conn, path.c_str()).ok());

  // The rebuilt domain index answers queries — including the stop-word
  // parameter carried through the snapshot.
  QueryResult ex = dst_conn.MustExecute(
      "EXPLAIN SELECT id FROM docs WHERE Contains(body, 'needle')");
  EXPECT_NE(ex.message.find("DomainIndex(d_text)"), std::string::npos)
      << ex.message;
  QueryResult r = dst_conn.MustExecute(
      "SELECT id FROM docs WHERE Contains(body, 'needle')");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  EXPECT_TRUE(
      dst_conn.MustExecute("SELECT id FROM docs WHERE Contains(body, "
                           "'the')")
          .rows.empty());
  // Built-in index rebuilt too: it shows up as a candidate path (at two
  // rows the optimizer rightly prefers a sequential scan).
  ex = dst_conn.MustExecute("EXPLAIN SELECT id FROM docs WHERE id = 2");
  EXPECT_NE(ex.message.find("BTREE(d_id)"), std::string::npos)
      << ex.message;
  // Maintenance continues to work on the restored database.
  dst_conn.MustExecute("INSERT INTO docs VALUES (3, 'another needle')");
  r = dst_conn.MustExecute(
      "SELECT COUNT(*) FROM docs WHERE Contains(body, 'needle')");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST(SnapshotTest, GuardsAndErrors) {
  ScopedTempPath path("extidx_test_snapshot.bin");
  Database src;
  Connection src_conn(&src);
  InstallAll(&src_conn);
  src_conn.MustExecute("CREATE TABLE t (a INTEGER)");
  ASSERT_TRUE(SaveSnapshot(&src, path.c_str()).ok());

  // Loading into a non-empty database is refused.
  Database busy;
  Connection busy_conn(&busy);
  InstallAll(&busy_conn);
  busy_conn.MustExecute("CREATE TABLE other (x INTEGER)");
  EXPECT_EQ(LoadSnapshot(&busy, &busy_conn, path.c_str()).code(),
            StatusCode::kInvalidArgument);

  // Missing file / corrupt file.
  Database fresh;
  Connection fresh_conn(&fresh);
  InstallAll(&fresh_conn);
  EXPECT_EQ(LoadSnapshot(&fresh, &fresh_conn, "/tmp/no_such_snapshot")
                .code(),
            StatusCode::kIoError);
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_EQ(LoadSnapshot(&fresh, &fresh_conn, path.c_str()).code(),
            StatusCode::kIoError);

  // A snapshot whose indextype is not installed in the target fails
  // cleanly at rebuild time.
  Database src2;
  Connection src2_conn(&src2);
  InstallAll(&src2_conn);
  src2_conn.MustExecute("CREATE TABLE d (body VARCHAR(50))");
  src2_conn.MustExecute(
      "CREATE INDEX dt ON d(body) INDEXTYPE IS TextIndexType");
  ASSERT_TRUE(SaveSnapshot(&src2, path.c_str()).ok());
  Database bare;  // no cartridges installed
  Connection bare_conn(&bare);
  EXPECT_FALSE(LoadSnapshot(&bare, &bare_conn, path.c_str()).ok());
}

}  // namespace
}  // namespace exi
