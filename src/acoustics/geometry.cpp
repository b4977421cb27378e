#include "acoustics/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <map>
#include <mutex>
#include <tuple>

#include "common/error.hpp"

namespace lifta::acoustics {

const char* boundaryClassName(int cls) {
  switch (cls) {
    case 0: return "face-x";
    case 1: return "face+x";
    case 2: return "face-y";
    case 3: return "face+y";
    case 4: return "face-z";
    case 5: return "face+z";
    case kBoundaryClassEdge: return "edge";
    case kBoundaryClassCorner: return "corner";
  }
  return "?";
}

const char* shapeName(RoomShape s) {
  switch (s) {
    case RoomShape::Box: return "box";
    case RoomShape::Dome: return "dome";
    case RoomShape::LShape: return "lshape";
    case RoomShape::Cylinder: return "cylinder";
  }
  return "?";
}

bool Room::inside(int x, int y, int z) const {
  // The halo (outermost layer) is never inside.
  if (x < 1 || y < 1 || z < 1 || x > nx - 2 || y > ny - 2 || z > nz - 2) {
    return false;
  }
  switch (shape) {
    case RoomShape::Box:
      return true;

    case RoomShape::Dome: {
      // Ellipsoid inscribed in the interior box; semi-axes span the full
      // interior extent, which reproduces the Table II dome point counts.
      const double cx = 0.5 * (nx - 1);
      const double cy = 0.5 * (ny - 1);
      const double cz = 0.5 * (nz - 1);
      const double rx = 0.5 * (nx - 2);
      const double ry = 0.5 * (ny - 2);
      const double rz = 0.5 * (nz - 2);
      const double dx = (x - cx) / rx;
      const double dy = (y - cy) / ry;
      const double dz = (z - cz) / rz;
      return dx * dx + dy * dy + dz * dz <= 1.0;
    }

    case RoomShape::LShape: {
      // Remove the quadrant with both x and y in the upper half.
      const bool upperX = x > (nx - 1) / 2;
      const bool upperY = y > (ny - 1) / 2;
      return !(upperX && upperY);
    }

    case RoomShape::Cylinder: {
      const double cx = 0.5 * (nx - 1);
      const double cy = 0.5 * (ny - 1);
      const double rx = 0.5 * (nx - 2);
      const double ry = 0.5 * (ny - 2);
      const double dx = (x - cx) / rx;
      const double dy = (y - cy) / ry;
      return dx * dx + dy * dy <= 1.0;
    }
  }
  return false;
}

std::vector<Room> paperRooms(RoomShape shape) {
  // Table II lists *volume* dimensions; the stored grid adds the zero halo
  // on each side (§II-A: "the size of each array is equal to the number of
  // points in the volume plus the halo"). With this reading the closed-form
  // boundary count reproduces Table II's 673,352 points for the 336^3 box
  // exactly.
  return {
      Room{shape, 602 + 2, 402 + 2, 302 + 2},
      Room{shape, 336 + 2, 336 + 2, 336 + 2},
      Room{shape, 302 + 2, 202 + 2, 152 + 2},
  };
}

Room boxRoomFromMeters(double lx, double ly, double lz, double h) {
  LIFTA_CHECK(lx > 0.0 && ly > 0.0 && lz > 0.0,
              "room dimensions must be positive");
  LIFTA_CHECK(h > 0.0, "grid spacing must be positive");
  const auto cellsFor = [h](double meters) {
    return std::max(1, static_cast<int>(std::lround(meters / h))) + 2;
  };
  return Room{RoomShape::Box, cellsFor(lx), cellsFor(ly), cellsFor(lz)};
}

int cellForPosition(double meters, double h, int n) {
  LIFTA_CHECK(h > 0.0, "grid spacing must be positive");
  LIFTA_CHECK(n >= 3, "dimension needs at least one interior cell");
  const int cell = 1 + static_cast<int>(std::floor(meters / h));
  return std::clamp(cell, 1, n - 2);
}

std::size_t boxBoundaryCount(int nx, int ny, int nz) {
  const auto x = static_cast<std::size_t>(nx - 2);
  const auto y = static_cast<std::size_t>(ny - 2);
  const auto z = static_cast<std::size_t>(nz - 2);
  if (x < 3 || y < 3 || z < 3) return x * y * z;  // everything is boundary
  return x * y * z - (x - 2) * (y - 2) * (z - 2);
}

RoomGrid voxelize(const Room& room, int numMaterials) {
  LIFTA_CHECK(room.nx >= 3 && room.ny >= 3 && room.nz >= 3,
              "room must be at least 3 cells in every dimension");
  // boundaryIndices (and the generated kernels' flat indices) are int32;
  // reject grids whose flat indices would overflow before allocating.
  LIFTA_CHECK(gridIndexableInt32(room),
              "grid has more cells than int32 flat indices can address");
  LIFTA_CHECK(!hasIsolatedInsideCell(room),
              "room has an inside cell with no inside neighbour; make it "
              "larger");
  LIFTA_CHECK(numMaterials >= 1, "need at least one material");

  RoomGrid g;
  g.nx = room.nx;
  g.ny = room.ny;
  g.nz = room.nz;
  g.nbrs.assign(room.cells(), 0);

  // Pass 1: inside mask, stored temporarily in nbrs as -1.
  for (int z = 1; z <= room.nz - 2; ++z) {
    for (int y = 1; y <= room.ny - 2; ++y) {
      for (int x = 1; x <= room.nx - 2; ++x) {
        if (room.inside(x, y, z)) {
          g.nbrs[room.index(x, y, z)] = -1;
          ++g.insideCells;
        }
      }
    }
  }

  // Pass 2: neighbor counts and boundary extraction. Ascending index order
  // gives the memory-continuity property discussed in §VII-B1.
  const auto insideAt = [&](int x, int y, int z) {
    return g.nbrs[room.index(x, y, z)] != 0;
  };
  for (int z = 1; z <= room.nz - 2; ++z) {
    for (int y = 1; y <= room.ny - 2; ++y) {
      for (int x = 1; x <= room.nx - 2; ++x) {
        const std::size_t idx = room.index(x, y, z);
        if (g.nbrs[idx] == 0) continue;
        const int count = (insideAt(x - 1, y, z) ? 1 : 0) +
                          (insideAt(x + 1, y, z) ? 1 : 0) +
                          (insideAt(x, y - 1, z) ? 1 : 0) +
                          (insideAt(x, y + 1, z) ? 1 : 0) +
                          (insideAt(x, y, z - 1) ? 1 : 0) +
                          (insideAt(x, y, z + 1) ? 1 : 0);
        // Store count+8 so pass 2 can still distinguish inside (-1 or >=8)
        // from outside (0) while scanning neighbors.
        g.nbrs[idx] = count + 8;
      }
    }
  }
  // Pass 3: normalize counts, collect boundary points, and build the
  // interior-run plan. The scan visits cells in ascending flat-index order,
  // so extending the open run while consecutive indices stay pure-interior
  // yields exactly the maximal contiguous nbr==6 runs (halo cells between
  // rows have nbr==0 and break every run at the row end).
  auto& plan = g.interiorRuns;
  std::int64_t runEnd = -1;  // one past the last cell of the open run
  for (int z = 1; z <= room.nz - 2; ++z) {
    for (int y = 1; y <= room.ny - 2; ++y) {
      for (int x = 1; x <= room.nx - 2; ++x) {
        const std::size_t idx = room.index(x, y, z);
        if (g.nbrs[idx] == 0) continue;
        const int count = g.nbrs[idx] - 8;
        g.nbrs[idx] = count;
        if (count == 6) {
          const auto i64 = static_cast<std::int64_t>(idx);
          if (i64 == runEnd) {
            ++plan.runLen.back();
          } else {
            plan.runBegin.push_back(i64);
            plan.runLen.push_back(1);
          }
          runEnd = i64 + 1;
          ++plan.interiorCells;
        }
        if (count < 6) {
          g.boundaryIndices.push_back(static_cast<std::int32_t>(idx));
          g.boundaryNbr.push_back(count);
          // Material bands by height: floor band 0 ... ceiling band M-1.
          const int mat = static_cast<int>(
              (static_cast<long>(z - 1) * numMaterials) / (room.nz - 2));
          g.material.push_back(
              static_cast<std::int32_t>(mat < numMaterials ? mat
                                                           : numMaterials - 1));
        }
      }
    }
  }

  // Pass 4: boundary topology classes. Runs after normalization, so "the
  // neighbor is inside" is exactly nbrs[n] > 0: an inside cell adjacent to
  // another inside cell has count >= 1, so count 0 can only mean outside.
  auto& cp = g.boundaryClasses;
  const std::size_t numB = g.boundaryIndices.size();
  std::vector<std::int8_t> classOf(numB);
  std::array<std::int32_t, kNumBoundaryClasses> classCount{};
  for (std::size_t p = 0; p < numB; ++p) {
    const std::int32_t nbr = g.boundaryNbr[p];
    int cls;
    if (nbr == 4) {
      cls = kBoundaryClassEdge;
    } else if (nbr <= 3) {
      cls = kBoundaryClassCorner;
    } else {
      // Face: exactly one of the six axis neighbors is outside; the class
      // is that direction's index (-x,+x,-y,+y,-z,+z).
      const auto idx = static_cast<std::size_t>(g.boundaryIndices[p]);
      const int x = static_cast<int>(idx % static_cast<std::size_t>(room.nx));
      const std::size_t rest = idx / static_cast<std::size_t>(room.nx);
      const int y = static_cast<int>(rest % static_cast<std::size_t>(room.ny));
      const int z = static_cast<int>(rest / static_cast<std::size_t>(room.ny));
      const bool in[6] = {
          g.nbrs[room.index(x - 1, y, z)] > 0,
          g.nbrs[room.index(x + 1, y, z)] > 0,
          g.nbrs[room.index(x, y - 1, z)] > 0,
          g.nbrs[room.index(x, y + 1, z)] > 0,
          g.nbrs[room.index(x, y, z - 1)] > 0,
          g.nbrs[room.index(x, y, z + 1)] > 0,
      };
      cls = 0;
      while (cls < 6 && in[cls]) ++cls;
      LIFTA_CHECK(cls < 6, "face boundary point has all six neighbors inside");
    }
    classOf[p] = static_cast<std::int8_t>(cls);
    ++classCount[static_cast<std::size_t>(cls)];
  }
  cp.classBegin[0] = 0;
  for (int c = 0; c < kNumBoundaryClasses; ++c) {
    cp.classBegin[static_cast<std::size_t>(c) + 1] =
        cp.classBegin[static_cast<std::size_t>(c)] +
        classCount[static_cast<std::size_t>(c)];
  }
  cp.order.resize(numB);
  cp.cellSorted.resize(numB);
  cp.nbrSorted.resize(numB);
  cp.matSorted.resize(numB);
  std::array<std::int32_t, kNumBoundaryClasses> cursor{};
  for (std::size_t p = 0; p < numB; ++p) {
    // Stable scatter: the original scan is ascending by cell index, so each
    // class's slots stay in ascending cell-index order.
    const auto c = static_cast<std::size_t>(classOf[p]);
    const auto slot =
        static_cast<std::size_t>(cp.classBegin[c] + cursor[c]++);
    cp.order[slot] = static_cast<std::int32_t>(p);
    cp.cellSorted[slot] = g.boundaryIndices[p];
    cp.nbrSorted[slot] = g.boundaryNbr[p];
    cp.matSorted[slot] = g.material[p];
  }
  return g;
}

std::vector<BoundaryLaunch> planBoundaryLaunches(const BoundaryClassPlan& plan,
                                                 std::int32_t minPoints) {
  LIFTA_CHECK(minPoints >= 0, "minPoints must be >= 0");
  std::vector<BoundaryLaunch> launches;
  for (int c = 0; c < kNumBoundaryClasses; ++c) {
    const std::int32_t count = plan.classCount(c);
    if (count == 0) continue;
    if (!launches.empty() && launches.back().count() < minPoints) {
      launches.back().end = plan.classBegin[static_cast<std::size_t>(c) + 1];
      launches.back().classLast = c;
    } else {
      BoundaryLaunch l;
      l.begin = plan.classBegin[static_cast<std::size_t>(c)];
      l.end = plan.classBegin[static_cast<std::size_t>(c) + 1];
      l.classFirst = l.classLast = c;
      launches.push_back(l);
    }
  }
  // A launch is branch-free when every point it covers shares one nbr.
  const auto uniformNbr = [&](const BoundaryLaunch& l) {
    std::int32_t nbr = plan.nbrSorted[static_cast<std::size_t>(l.begin)];
    for (std::int32_t j = l.begin + 1; j < l.end; ++j) {
      if (plan.nbrSorted[static_cast<std::size_t>(j)] != nbr) return -1;
    }
    return nbr;
  };
  for (auto& l : launches) l.fixedNbr = uniformNbr(l);
  // A tiny trailing launch (typically the corner class) fuses backwards —
  // but only when that does not de-specialize a branch-free predecessor:
  // folding the 8 mixed-nbr corners into the uniform edge launch would turn
  // the whole edge class back into the fused kernel, which costs far more
  // than one extra tiny launch.
  if (launches.size() >= 2 && launches.back().count() < minPoints) {
    auto& pred = launches[launches.size() - 2];
    const auto& tail = launches.back();
    if (pred.fixedNbr < 0 || pred.fixedNbr == tail.fixedNbr) {
      pred.end = tail.end;
      pred.classLast = tail.classLast;
      launches.pop_back();
      auto& merged = launches.back();
      merged.fixedNbr = uniformNbr(merged);
    }
  }
  return launches;
}

namespace {

// Bounded LRU cache of voxelized grids. A map from config key to entry plus
// an LRU list of keys (front = most recent); both are guarded by one mutex.
// Eviction drops only the cache's shared_ptr — grids already handed to live
// simulations stay valid until their last owner releases them.
struct VoxelCache {
  using Key = std::tuple<int, int, int, int, int>;
  struct Entry {
    std::shared_ptr<const RoomGrid> grid;
    std::list<Key>::iterator lruPos;
  };

  std::mutex mu;
  std::list<Key> lru;
  std::map<Key, Entry> entries;
  std::size_t capacity = kDefaultVoxelCacheCapacity;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  static VoxelCache& instance() {
    static VoxelCache cache;
    return cache;
  }

  // Caller must hold mu.
  void evictOverCapacity() {
    while (entries.size() > capacity) {
      entries.erase(lru.back());
      lru.pop_back();
      ++evictions;
    }
  }
};

}  // namespace

std::shared_ptr<const RoomGrid> voxelizeCached(const Room& room,
                                               int numMaterials) {
  auto& cache = VoxelCache::instance();
  const VoxelCache::Key key{static_cast<int>(room.shape), room.nx, room.ny,
                            room.nz, numMaterials};
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      ++cache.hits;
      cache.lru.splice(cache.lru.begin(), cache.lru, it->second.lruPos);
      return it->second.grid;
    }
    ++cache.misses;
  }
  // Voxelize outside the lock; a racing duplicate just loses the insert.
  auto grid = std::make_shared<const RoomGrid>(voxelize(room, numMaterials));
  std::lock_guard<std::mutex> lock(cache.mu);
  auto it = cache.entries.find(key);
  if (it != cache.entries.end()) {
    // Another thread voxelized the same room first; keep its grid.
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second.lruPos);
    return it->second.grid;
  }
  cache.lru.push_front(key);
  cache.entries.emplace(key,
                        VoxelCache::Entry{std::move(grid), cache.lru.begin()});
  cache.evictOverCapacity();
  return cache.entries.find(key)->second.grid;
}

VoxelCacheStats voxelCacheStats() {
  auto& cache = VoxelCache::instance();
  std::lock_guard<std::mutex> lock(cache.mu);
  VoxelCacheStats stats;
  stats.hits = cache.hits;
  stats.misses = cache.misses;
  stats.evictions = cache.evictions;
  stats.entries = cache.entries.size();
  stats.capacity = cache.capacity;
  return stats;
}

void setVoxelCacheCapacity(std::size_t capacity) {
  LIFTA_CHECK(capacity >= 1, "voxel cache capacity must be >= 1");
  auto& cache = VoxelCache::instance();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.capacity = capacity;
  cache.evictOverCapacity();
}

void clearVoxelCache() {
  auto& cache = VoxelCache::instance();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.lru.clear();
}

}  // namespace lifta::acoustics
