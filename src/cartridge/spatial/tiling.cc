#include "cartridge/spatial/tiling.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace exi::spatial {

uint64_t MortonEncode(uint32_t x, uint32_t y) {
  auto spread = [](uint64_t v) {
    v &= 0xFFFF;
    v = (v | (v << 8)) & 0x00FF00FF;
    v = (v | (v << 4)) & 0x0F0F0F0F;
    v = (v | (v << 2)) & 0x33333333;
    v = (v | (v << 1)) & 0x55555555;
    return v;
  };
  return spread(x) | (spread(y) << 1);
}

bool TileCover::Contains(uint64_t tile) const {
  auto compact = [](uint64_t v) {
    v &= 0x55555555;
    v = (v | (v >> 1)) & 0x33333333;
    v = (v | (v >> 2)) & 0x0F0F0F0F;
    v = (v | (v >> 4)) & 0x00FF00FF;
    v = (v | (v >> 8)) & 0x0000FFFF;
    return uint32_t(v);
  };
  const uint32_t x = compact(tile);
  const uint32_t y = compact(tile >> 1);
  return x >= x0 && x <= x1 && y >= y0 && y <= y1;
}

TileCover CoverOf(const Geometry& g, int level) {
  if (level < 0) level = 0;
  if (level > kMaxTileLevel) level = kMaxTileLevel;
  uint32_t n = CellsPerAxis(level);
  double cell = kWorldSize / double(n);

  auto clamp_cell = [&](double coord) {
    double c = std::floor(coord / cell);
    if (c < 0) c = 0;
    if (c > double(n - 1)) c = double(n - 1);
    return uint32_t(c);
  };
  // Upper edges exactly on a cell boundary belong to the lower cell.
  double xm = g.xmax > g.xmin ? std::nexttoward(g.xmax, g.xmin) : g.xmax;
  double ym = g.ymax > g.ymin ? std::nexttoward(g.ymax, g.ymin) : g.ymax;
  return {clamp_cell(g.xmin), clamp_cell(g.ymin), clamp_cell(xm),
          clamp_cell(ym)};
}

Result<std::vector<uint64_t>> CoverTiles(const Geometry& g, int level) {
  const TileCover r = CoverOf(g, level);
  if (r.count() > kMaxCoverTiles) {
    return Status::InvalidArgument(
        "tile cover of " + std::to_string(r.count()) + " tiles at level " +
        std::to_string(level) + " exceeds " + std::to_string(kMaxCoverTiles));
  }
  std::vector<uint64_t> tiles;
  tiles.reserve(r.count());
  for (uint32_t y = r.y0; y <= r.y1; ++y) {
    for (uint32_t x = r.x0; x <= r.x1; ++x) {
      tiles.push_back(MortonEncode(x, y));
    }
  }
  std::sort(tiles.begin(), tiles.end());
  return tiles;
}

}  // namespace exi::spatial
