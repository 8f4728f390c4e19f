// Tests for the spatial cartridge (§3.2.2): geometry relations, tiling,
// the LOB-resident R-tree, both indextypes end-to-end, the domain-index
// layer join, and the pre-8i baseline equivalence.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/legacy_spatial.h"
#include "cartridge/spatial/rtree.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/spatial/tiling.h"
#include "common/rng.h"
#include "core/callback_guard.h"
#include "engine/connection.h"

namespace exi {
namespace {

using namespace exi::spatial;  // NOLINT

TEST(GeometryTest, Relations) {
  Geometry a{0, 0, 10, 10};
  Geometry b{5, 5, 15, 15};
  Geometry inside{2, 2, 3, 3};
  Geometry touch{10, 0, 20, 10};
  Geometry far_away{100, 100, 110, 110};

  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(inside));
  EXPECT_TRUE(inside.Inside(a));
  EXPECT_TRUE(a.ContainsGeom(inside));
  EXPECT_TRUE(a.Touches(touch));
  EXPECT_FALSE(a.Overlaps(touch));
  EXPECT_FALSE(a.Intersects(far_away));
  EXPECT_TRUE(a.Equal(a));
}

TEST(GeometryTest, MaskParsing) {
  auto m = ParseMask("mask=OVERLAPS");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, uint8_t(RelationMask::kOverlaps));
  m = ParseMask(" mask=inside+equal ");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, uint8_t(RelationMask::kInside) |
                    uint8_t(RelationMask::kEqual));
  EXPECT_FALSE(ParseMask("nomask").ok());
  EXPECT_FALSE(ParseMask("mask=bogus").ok());
}

TEST(TilingTest, CoverTilesBasics) {
  // Level 1: 2x2 grid of 5000-unit cells.
  auto tiles = *CoverTiles(Geometry{0, 0, 100, 100}, 1);
  EXPECT_EQ(tiles.size(), 1u);
  tiles = *CoverTiles(Geometry{0, 0, 6000, 100}, 1);
  EXPECT_EQ(tiles.size(), 2u);
  tiles = *CoverTiles(Geometry{0, 0, 6000, 6000}, 1);
  EXPECT_EQ(tiles.size(), 4u);
  // Upper edge exactly on a boundary stays in the lower cell.
  tiles = *CoverTiles(Geometry{0, 0, 5000, 5000}, 1);
  EXPECT_EQ(tiles.size(), 1u);
  // Out-of-world coordinates clamp.
  tiles = *CoverTiles(Geometry{-100, -100, 20000, 20000}, 1);
  EXPECT_EQ(tiles.size(), 4u);
  EXPECT_EQ(CoverOf(Geometry{-100, -100, 20000, 20000}, 1).count(), 4u);
}

// A world-sized geometry at level 16 covers 65,536^2 cells: the cover is
// refused before it is allocated, and the count needs no allocation.
TEST(TilingTest, OversizedCoverIsRefusedBeforeAllocating) {
  const Geometry world{0, 0, kWorldSize, kWorldSize};
  EXPECT_EQ(CoverOf(world, 16).count(), uint64_t(1) << 32);
  Result<std::vector<uint64_t>> tiles = CoverTiles(world, 16);
  ASSERT_FALSE(tiles.ok());
  EXPECT_EQ(tiles.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tiles.status().message().find("4294967296 tiles at level 16"),
            std::string::npos)
      << tiles.status().ToString();
  // The largest cover allowed: 256 x 256 cells at level 8 is the world.
  EXPECT_EQ(CoverTiles(world, 8)->size(), kMaxCoverTiles);
  EXPECT_FALSE(CoverTiles(world, 9).ok());
}

// The codes in a cover's [first, last] span that Contains accepts are
// exactly the tiles CoverTiles lists.
TEST(TilingTest, CoverSpanContainsExactlyItsTiles) {
  const Geometry g{1234, 2345, 3456, 2999};
  const TileCover cover = CoverOf(g, 5);
  const std::vector<uint64_t> tiles = *CoverTiles(g, 5);
  ASSERT_EQ(tiles.size(), cover.count());
  EXPECT_EQ(tiles.front(), cover.first());
  EXPECT_EQ(tiles.back(), cover.last());
  std::vector<uint64_t> kept;
  for (uint64_t code = cover.first(); code <= cover.last(); ++code) {
    if (cover.Contains(code)) kept.push_back(code);
  }
  EXPECT_EQ(kept, tiles);
  EXPECT_LT(kept.size(), cover.last() - cover.first() + 1);
}

TEST(TilingTest, MortonIsInjectivePerLevel) {
  std::set<uint64_t> codes;
  for (uint32_t x = 0; x < 32; ++x) {
    for (uint32_t y = 0; y < 32; ++y) {
      codes.insert(MortonEncode(x, y));
    }
  }
  EXPECT_EQ(codes.size(), 32u * 32u);
}

// ---- R-tree unit tests (driven through a raw ServerContext) ----

class RTreeTest : public ::testing::Test {
 protected:
  RTreeTest() : ctx_(&catalog_, nullptr, CallbackMode::kDefinition) {}

  Catalog catalog_;
  GuardedServerContext ctx_;
};

TEST_F(RTreeTest, InsertAndSearch) {
  Result<LobId> lob = ctx_.CreateLob();
  ASSERT_TRUE(lob.ok());
  LobRTree tree(&ctx_, *lob);
  ASSERT_TRUE(tree.Clear().ok());
  Rng rng(42);
  std::vector<Geometry> rects;
  for (uint64_t i = 0; i < 1000; ++i) {
    Geometry g;
    g.xmin = rng.NextDouble() * 9000;
    g.ymin = rng.NextDouble() * 9000;
    g.xmax = g.xmin + rng.NextDouble() * 100;
    g.ymax = g.ymin + rng.NextDouble() * 100;
    rects.push_back(g);
    ASSERT_TRUE(tree.Insert(g, i).ok());
  }
  ASSERT_EQ(*tree.EntryCount(), 1000u);
  EXPECT_GT(*tree.Height(), 1u);

  Geometry query{1000, 1000, 3000, 3000};
  std::set<uint64_t> found;
  ASSERT_TRUE(tree.Search(query, [&](const Geometry&, uint64_t id) {
                    found.insert(id);
                    return true;
                  })
                  .ok());
  std::set<uint64_t> expected;
  for (uint64_t i = 0; i < rects.size(); ++i) {
    if (rects[i].Intersects(query)) expected.insert(i);
  }
  EXPECT_EQ(found, expected);
  EXPECT_FALSE(expected.empty());
}

TEST_F(RTreeTest, RemoveAndClear) {
  Result<LobId> lob = ctx_.CreateLob();
  ASSERT_TRUE(lob.ok());
  LobRTree tree(&ctx_, *lob);
  ASSERT_TRUE(tree.Clear().ok());
  std::vector<Geometry> rects;
  for (uint64_t i = 0; i < 300; ++i) {
    Geometry g{double(i * 10), 0, double(i * 10 + 5), 5};
    rects.push_back(g);
    ASSERT_TRUE(tree.Insert(g, i).ok());
  }
  // Remove every even entry.
  for (uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(tree.Remove(rects[i], i).ok()) << i;
  }
  EXPECT_EQ(*tree.EntryCount(), 150u);
  // Removing twice fails.
  EXPECT_FALSE(tree.Remove(rects[0], 0).ok());
  std::set<uint64_t> found;
  ASSERT_TRUE(tree.Search(Geometry{0, 0, 10000, 10},
                          [&](const Geometry&, uint64_t id) {
                            found.insert(id);
                            return true;
                          })
                  .ok());
  EXPECT_EQ(found.size(), 150u);
  for (uint64_t id : found) EXPECT_EQ(id % 2, 1u);

  ASSERT_TRUE(tree.Clear().ok());
  EXPECT_EQ(*tree.EntryCount(), 0u);
}

// ---- cartridge end-to-end ----

class SpatialCartridgeTest : public ::testing::Test {
 protected:
  SpatialCartridgeTest() : conn_(&db_) {
    EXPECT_TRUE(InstallSpatialCartridge(&conn_).ok());
    conn_.MustExecute(
        "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY)");
  }

  void InsertRect(const std::string& table, int gid, double x1, double y1,
                  double x2, double y2) {
    conn_.MustExecute("INSERT INTO " + table + " VALUES (" +
                      std::to_string(gid) + ", SDO_GEOMETRY(" +
                      std::to_string(x1) + "," + std::to_string(y1) + "," +
                      std::to_string(x2) + "," + std::to_string(y2) + "))");
  }

  std::vector<int64_t> QueryGids(const std::string& where) {
    QueryResult r = conn_.MustExecute("SELECT gid FROM parks WHERE " +
                                      where + " ORDER BY gid");
    std::vector<int64_t> gids;
    for (const Row& row : r.rows) gids.push_back(row[0].AsInteger());
    return gids;
  }

  Database db_;
  Connection conn_;
};

TEST_F(SpatialCartridgeTest, FunctionalSdoRelate) {
  InsertRect("parks", 1, 0, 0, 100, 100);
  InsertRect("parks", 2, 50, 50, 150, 150);
  InsertRect("parks", 3, 1000, 1000, 1100, 1100);
  EXPECT_EQ(QueryGids("Sdo_Relate(geometry, SDO_GEOMETRY(40,40,60,60), "
                      "'mask=ANYINTERACT')"),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(QueryGids("Sdo_Relate(geometry, SDO_GEOMETRY(40,40,60,60), "
                      "'mask=CONTAINS')"),
            std::vector<int64_t>{1});
}

TEST_F(SpatialCartridgeTest, TileDomainIndexMatchesFunctional) {
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    double x = rng.NextDouble() * 9000;
    double y = rng.NextDouble() * 9000;
    InsertRect("parks", i, x, y, x + rng.NextDouble() * 200,
               y + rng.NextDouble() * 200);
  }
  std::string where =
      "Sdo_Relate(geometry, SDO_GEOMETRY(2000,2000,4000,4000), "
      "'mask=ANYINTERACT')";
  std::vector<int64_t> without_index = QueryGids(where);
  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType PARAMETERS (':TileLevel 5')");
  conn_.MustExecute("ANALYZE parks");
  QueryResult ex =
      conn_.MustExecute("EXPLAIN SELECT gid FROM parks WHERE " + where);
  EXPECT_NE(ex.message.find("DomainIndex(parks_sidx)"), std::string::npos)
      << ex.message;
  EXPECT_EQ(QueryGids(where), without_index);
  EXPECT_FALSE(without_index.empty());
}

TEST_F(SpatialCartridgeTest, RtreeIndexTypeGivesSameAnswers) {
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    double x = rng.NextDouble() * 9000;
    double y = rng.NextDouble() * 9000;
    InsertRect("parks", i, x, y, x + 150, y + 150);
  }
  std::string where =
      "Sdo_Relate(geometry, SDO_GEOMETRY(3000,3000,3500,3500), "
      "'mask=ANYINTERACT')";
  std::vector<int64_t> expected = QueryGids(where);
  // Same operator, different indextype — queries unchanged (§3.2.2).
  conn_.MustExecute(
      "CREATE INDEX parks_ridx ON parks(geometry) "
      "INDEXTYPE IS RtreeIndexType");
  EXPECT_EQ(QueryGids(where), expected);
  // Maintenance flows through the R-tree too.
  InsertRect("parks", 999, 3100, 3100, 3200, 3200);
  std::vector<int64_t> with_new = QueryGids(where);
  EXPECT_EQ(with_new.size(), expected.size() + 1);
  conn_.MustExecute("DELETE FROM parks WHERE gid = 999");
  EXPECT_EQ(QueryGids(where), expected);
}

TEST_F(SpatialCartridgeTest, DomainIndexJoinTwoLayers) {
  conn_.MustExecute(
      "CREATE TABLE roads (gid INTEGER, geometry OBJECT SDO_GEOMETRY)");
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    double x = rng.NextDouble() * 9000;
    double y = rng.NextDouble() * 9000;
    InsertRect("parks", i, x, y, x + 300, y + 300);
  }
  for (int i = 0; i < 60; ++i) {
    double x = rng.NextDouble() * 9000;
    double y = rng.NextDouble() * 9000;
    InsertRect("roads", i, x, y, x + 500, y + 40);
  }
  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType");

  // The paper's layer-overlap query (§3.2.2).
  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT r.gid, p.gid FROM roads r, parks p WHERE "
      "Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')");
  EXPECT_NE(ex.message.find("DomainIndexJoin"), std::string::npos)
      << ex.message;
  QueryResult joined = conn_.MustExecute(
      "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
      "Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')");

  // Ground truth by brute force.
  QueryResult brute = conn_.MustExecute(
      "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
      "SdoRelateFn(p.geometry, r.geometry, 'mask=ANYINTERACT')");
  std::set<std::pair<int64_t, int64_t>> got;
  std::set<std::pair<int64_t, int64_t>> want;
  for (const Row& row : joined.rows) {
    got.emplace(row[0].AsInteger(), row[1].AsInteger());
  }
  for (const Row& row : brute.rows) {
    want.emplace(row[0].AsInteger(), row[1].AsInteger());
  }
  EXPECT_EQ(got, want);
  EXPECT_FALSE(want.empty());
}

TEST_F(SpatialCartridgeTest, LegacyJoinMatchesDomainIndexJoin) {
  conn_.MustExecute(
      "CREATE TABLE roads (gid INTEGER, geometry OBJECT SDO_GEOMETRY)");
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    double x = rng.NextDouble() * 9000;
    double y = rng.NextDouble() * 9000;
    InsertRect("parks", i, x, y, x + 400, y + 400);
    double rx = rng.NextDouble() * 9000;
    double ry = rng.NextDouble() * 9000;
    InsertRect("roads", i, rx, ry, rx + 600, ry + 50);
  }
  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType");
  QueryResult modern = conn_.MustExecute(
      "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
      "Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')");

  ASSERT_TRUE(
      LegacySpatialBuildIndex(&conn_, "parks", "geometry", 6).ok());
  ASSERT_TRUE(
      LegacySpatialBuildIndex(&conn_, "roads", "geometry", 6).ok());
  Result<std::vector<std::pair<RowId, RowId>>> legacy = LegacySpatialJoin(
      &conn_, "roads", "geometry", "parks", "geometry", "mask=ANYINTERACT");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  // Compare as (road gid, park gid) sets: legacy returns rowids; rows were
  // inserted in gid order per table, so translate through the tables.
  std::set<std::pair<int64_t, int64_t>> modern_set;
  for (const Row& row : modern.rows) {
    modern_set.emplace(row[0].AsInteger(), row[1].AsInteger());
  }
  HeapTable* roads = *db_.catalog().GetTable("roads");
  HeapTable* parks = *db_.catalog().GetTable("parks");
  std::set<std::pair<int64_t, int64_t>> legacy_set;
  for (const auto& [rid_r, rid_p] : *legacy) {
    legacy_set.emplace((*roads->Get(rid_r))[0].AsInteger(),
                       (*parks->Get(rid_p))[0].AsInteger());
  }
  EXPECT_EQ(legacy_set, modern_set);
  EXPECT_FALSE(modern_set.empty());
}

TEST_F(SpatialCartridgeTest, AlterTileLevelRebuilds) {
  InsertRect("parks", 1, 0, 0, 100, 100);
  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType PARAMETERS (':TileLevel 3')");
  std::string where =
      "Sdo_Relate(geometry, SDO_GEOMETRY(50,50,60,60), 'mask=ANYINTERACT')";
  EXPECT_EQ(QueryGids(where), std::vector<int64_t>{1});
  conn_.MustExecute("ALTER INDEX parks_sidx PARAMETERS (':TileLevel 8')");
  EXPECT_EQ(QueryGids(where), std::vector<int64_t>{1});
}

TEST_F(SpatialCartridgeTest, MalformedTileLevelIsRejected) {
  InsertRect("parks", 1, 0, 0, 100, 100);
  for (const char* level : {"abc", "40", "0", "6x"}) {
    Result<QueryResult> r = conn_.Execute(
        std::string("CREATE INDEX bad ON parks(geometry) INDEXTYPE IS "
                    "SpatialIndexType PARAMETERS (':TileLevel ") +
        level + "')");
    ASSERT_FALSE(r.ok()) << level;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(std::string("TileLevel ") + level),
              std::string::npos)
        << r.status().ToString();
  }
  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType PARAMETERS (':TileLevel 5')");
  Result<QueryResult> alter =
      conn_.Execute("ALTER INDEX parks_sidx PARAMETERS (':TileLevel abc')");
  ASSERT_FALSE(alter.ok());
  EXPECT_EQ(alter.status().code(), StatusCode::kInvalidArgument);
  QueryResult params = conn_.MustExecute(
      "SELECT parameters FROM user_indexes WHERE index_name = 'parks_sidx'");
  ASSERT_EQ(params.rows.size(), 1u);
  EXPECT_EQ(params.rows[0][0].AsVarchar(), ":TileLevel 5");
  EXPECT_EQ(QueryGids("Sdo_Relate(geometry, SDO_GEOMETRY(50,50,60,60), "
                      "'mask=ANYINTERACT')"),
            std::vector<int64_t>{1});
}

// The world square at :TileLevel 16 is 2^32 tiles: CREATE INDEX over it,
// and INSERT of it under a level-16 index, fail with InvalidArgument
// instead of allocating its cover, and the table keeps its rows.
TEST_F(SpatialCartridgeTest, WorldSizedCoverAtLevel16IsRefused) {
  InsertRect("parks", 1, 10, 10, 11, 11);  // 7 x 7 tiles at level 16
  const std::string world = "SDO_GEOMETRY(0,0,10000,10000)";
  conn_.MustExecute("CREATE TABLE big (gid INTEGER, geometry OBJECT "
                    "SDO_GEOMETRY)");
  conn_.MustExecute("INSERT INTO big VALUES (1, " + world + ")");
  Result<QueryResult> create = conn_.Execute(
      "CREATE INDEX big_sidx ON big(geometry) INDEXTYPE IS "
      "SpatialIndexType PARAMETERS (':TileLevel 16')");
  ASSERT_FALSE(create.ok());
  EXPECT_EQ(create.status().code(), StatusCode::kInvalidArgument)
      << create.status().ToString();

  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType PARAMETERS (':TileLevel 16')");
  Result<QueryResult> insert =
      conn_.Execute("INSERT INTO parks VALUES (2, " + world + ")");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(insert.status().message().find("at level 16"),
            std::string::npos)
      << insert.status().ToString();
  // The costed plan for a world-sized window counts its cover without
  // listing it, and the answer equals functional evaluation.
  EXPECT_EQ(QueryGids("Sdo_Relate(geometry, " + world +
                      ", 'mask=ANYINTERACT')"),
            std::vector<int64_t>{1});
}

// A query window whose cover at the index's level is over the bound is
// answered through one range scan of its Z-order span instead of tile by
// tile, whether the planner picks the index for it (a table large enough
// that the seq scan costs more) or a join probes the index with it.
TEST_F(SpatialCartridgeTest, OversizedQueryWindowIsAnsweredByRangeScan) {
  // 14,000 rects 0.1 wide on a 0.8 grid: 125 per row, 112 rows.
  std::string rows;
  for (int i = 0; i < 14000; ++i) {
    const double x = (i % 125) * 0.8;
    const double y = (i / 125) * 0.8;
    rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", SDO_GEOMETRY(" +
            std::to_string(x) + "," + std::to_string(y) + "," +
            std::to_string(x + 0.1) + "," + std::to_string(y + 0.1) + "))";
  }
  conn_.MustExecute("INSERT INTO parks VALUES " + rows);
  conn_.MustExecute(
      "CREATE INDEX parks_sidx ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType PARAMETERS (':TileLevel 16')");
  conn_.MustExecute("ANALYZE parks");
  // 265^2 tiles at level 16; columns and rows 0-50 of the grid lie in it.
  const Geometry window{0, 0, 40.4, 40.4};
  ASSERT_GT(CoverOf(window, 16).count(), kMaxCoverTiles);
  const std::string where =
      "Sdo_Relate(geometry, SDO_GEOMETRY(0,0,40.4,40.4), 'mask=ANYINTERACT')";
  const std::string plan =
      conn_.MustExecute("EXPLAIN SELECT gid FROM parks WHERE " + where)
          .message;
  EXPECT_NE(plan.find("* DomainIndex(parks_sidx)"), std::string::npos)
      << plan;
  const std::vector<int64_t> indexed = QueryGids(where);
  EXPECT_EQ(indexed.size(), 51u * 51u);

  conn_.MustExecute(
      "CREATE TABLE windows (id INTEGER, geometry OBJECT SDO_GEOMETRY)");
  conn_.MustExecute(
      "INSERT INTO windows VALUES (1, SDO_GEOMETRY(0,0,40.4,40.4)), "
      "(2, SDO_GEOMETRY(0,0,10000,10000)), (3, SDO_GEOMETRY(0,0,0.5,0.5))");
  const std::string join =
      "SELECT w.id, COUNT(*) FROM windows w, parks p WHERE "
      "Sdo_Relate(p.geometry, w.geometry, 'mask=ANYINTERACT') "
      "GROUP BY w.id";
  EXPECT_NE(conn_.MustExecute("EXPLAIN " + join)
                .message.find("DomainIndexJoin(inner=parks via parks_sidx"),
            std::string::npos);
  auto counts = [&] {
    std::map<int64_t, int64_t> out;
    for (const Row& row : conn_.MustExecute(join).rows) {
      out[row[0].AsInteger()] = row[1].AsInteger();
    }
    return out;
  };
  const std::map<int64_t, int64_t> expected = {
      {1, 51 * 51}, {2, 14000}, {3, 1}};
  EXPECT_EQ(counts(), expected);

  // Functional evaluation answers the same.
  conn_.MustExecute("DROP INDEX parks_sidx");
  EXPECT_EQ(QueryGids(where), indexed);
  EXPECT_EQ(counts(), expected);
}

// ---- tile build equivalence: bulk Create, per-row maintenance, Alter ----

// `n` rectangles with a NULL geometry every seventh row, as SQL literals.
std::vector<std::string> Rects(size_t n) {
  Rng rng(23);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      out.push_back("NULL");
      continue;
    }
    double x = rng.NextDouble() * 9000;
    double y = rng.NextDouble() * 9000;
    double w = rng.NextDouble() * 900;
    out.push_back("SDO_GEOMETRY(" + std::to_string(x) + "," +
                  std::to_string(y) + "," + std::to_string(x + w) + "," +
                  std::to_string(y + w / 2) + ")");
  }
  return out;
}

enum class TileBuild { kBulk, kPerRow, kAlter };

// parks(gid, geometry) filled with `rects` and tile index ptile at
// :TileLevel 5: created over the filled table (the bulk build), created
// over the empty table and maintained row by row, or created at level 2
// and altered to level 5.  Rows get the same rowids every way.
class BuiltParks {
 public:
  BuiltParks(TileBuild how, const std::vector<std::string>& rects)
      : conn_(&db_) {
    EXPECT_TRUE(InstallSpatialCartridge(&conn_).ok());
    conn_.MustExecute(
        "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY)");
    const std::string create =
        "CREATE INDEX ptile ON parks(geometry) INDEXTYPE IS "
        "SpatialIndexType PARAMETERS (':TileLevel ";
    if (how == TileBuild::kPerRow) conn_.MustExecute(create + "5')");
    for (size_t i = 0; i < rects.size(); ++i) {
      conn_.MustExecute("INSERT INTO parks VALUES (" + std::to_string(i) +
                        ", " + rects[i] + ")");
    }
    if (how == TileBuild::kBulk) conn_.MustExecute(create + "5')");
    if (how == TileBuild::kAlter) {
      conn_.MustExecute(create + "2')");
      conn_.MustExecute("ALTER INDEX ptile PARAMETERS (':TileLevel 5')");
    }
  }

  // The tile IOT's rows in key order.
  std::vector<std::string> tiles() {
    std::vector<std::string> rows;
    Result<Iot*> iot = db_.catalog().GetIot("ptile$ttab");
    EXPECT_TRUE(iot.ok()) << iot.status().ToString();
    if (!iot.ok()) return rows;
    (*iot)->ScanRange(nullptr, true, nullptr, true, [&rows](const Row& row) {
      rows.push_back(KeyToString(row));
      return true;
    });
    return rows;
  }
  Connection& conn() { return conn_; }

 private:
  Database db_;
  Connection conn_;
};

TEST(TileBuildEquivalenceTest, BulkPerRowAndAlterAgree) {
  for (size_t n : {size_t(0), size_t(1), size_t(4), size_t(80)}) {
    SCOPED_TRACE(std::to_string(n) + " rows");
    std::vector<std::string> want = BuiltParks(TileBuild::kPerRow, Rects(n))
                                        .tiles();
    if (n == 80) {
      ASSERT_GT(want.size(), 80u);
    }
    EXPECT_EQ(BuiltParks(TileBuild::kBulk, Rects(n)).tiles(), want);
    EXPECT_EQ(BuiltParks(TileBuild::kAlter, Rects(n)).tiles(), want);
  }
}

// DML on a bulk-built tile index rolls back to exactly the loaded rows.
TEST(TileBuildEquivalenceTest, RollbackRestoresBulkBuiltRows) {
  BuiltParks parks(TileBuild::kBulk, Rects(80));
  const std::vector<std::string> loaded = parks.tiles();
  parks.conn().MustExecute("BEGIN");
  parks.conn().MustExecute(
      "INSERT INTO parks VALUES (100, SDO_GEOMETRY(10,10,3000,3000))");
  parks.conn().MustExecute(
      "UPDATE parks SET geometry = SDO_GEOMETRY(5000,5000,5600,5100) "
      "WHERE gid < 10");
  parks.conn().MustExecute("DELETE FROM parks WHERE gid > 50");
  ASSERT_NE(parks.tiles(), loaded);
  parks.conn().MustExecute("ROLLBACK");
  EXPECT_EQ(parks.tiles(), loaded);
}

}  // namespace
}  // namespace exi
