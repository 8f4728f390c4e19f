#ifndef EXTIDX_CARTRIDGE_SPATIAL_TILING_H_
#define EXTIDX_CARTRIDGE_SPATIAL_TILING_H_

#include <cstdint>
#include <vector>

#include "cartridge/spatial/geometry.h"
#include "common/result.h"

namespace exi::spatial {

// Fixed-grid tessellation (§3.2.2: "The spatial index consists of a
// collection of tiles (unit of space) corresponding to every spatial
// object").  The world is the square [0, kWorldSize)²; level L divides it
// into 2^L x 2^L cells; a tile code is the Morton (Z-order) interleave of
// the cell coordinates, so nearby tiles get nearby codes — the property
// the pre-8i sdo_code range formulation exploited.
inline constexpr double kWorldSize = 10000.0;
inline constexpr int kMaxTileLevel = 16;

// Morton interleave of 16-bit x/y cell coordinates.
uint64_t MortonEncode(uint32_t x, uint32_t y);

// The most tiles one cover may list: at level 16 the world alone is 2^32.
inline constexpr uint64_t kMaxCoverTiles = 65536;

// The grid cells at `level` intersecting `g` (clipped to the world
// square): the inclusive cell ranges [x0, x1] x [y0, y1].
struct TileCover {
  uint32_t x0, y0, x1, y1;

  // Number of cells, counted without listing them.
  uint64_t count() const { return uint64_t(x1 - x0 + 1) * (y1 - y0 + 1); }
  // Whether tile code `tile` is one of the cells.
  bool Contains(uint64_t tile) const;
  // The least and greatest code of the cells: the Morton interleave grows
  // with each coordinate, so every cell's code lies between them.
  uint64_t first() const { return MortonEncode(x0, y0); }
  uint64_t last() const { return MortonEncode(x1, y1); }
};
TileCover CoverOf(const Geometry& g, int level);

// Tile codes of all grid cells at `level` intersecting `g` (clipped to the
// world square), sorted ascending.  InvalidArgument naming the count and
// level when there are more than kMaxCoverTiles.
Result<std::vector<uint64_t>> CoverTiles(const Geometry& g, int level);

// Number of cells per axis at `level`.
inline uint32_t CellsPerAxis(int level) { return 1u << level; }

}  // namespace exi::spatial

#endif  // EXTIDX_CARTRIDGE_SPATIAL_TILING_H_
