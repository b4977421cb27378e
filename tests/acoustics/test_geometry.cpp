#include "acoustics/geometry.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "common/error.hpp"

namespace lifta::acoustics {
namespace {

TEST(Geometry, BoxBoundaryCountMatchesTableII336) {
  // Table II: the 336^3 box has 673,352 boundary points.
  EXPECT_EQ(boxBoundaryCount(338, 338, 338), 673352u);
}

TEST(Geometry, VoxelizerMatchesClosedFormBoxCounts) {
  for (const auto& dims : {std::array<int, 3>{20, 16, 12},
                           std::array<int, 3>{33, 21, 17},
                           std::array<int, 3>{8, 8, 8}}) {
    Room r{RoomShape::Box, dims[0], dims[1], dims[2]};
    const RoomGrid g = voxelize(r);
    EXPECT_EQ(g.boundaryPoints(), boxBoundaryCount(dims[0], dims[1], dims[2]))
        << dims[0] << "x" << dims[1] << "x" << dims[2];
  }
}

TEST(Geometry, BoxInsideCellCount) {
  Room r{RoomShape::Box, 12, 10, 8};
  const RoomGrid g = voxelize(r);
  EXPECT_EQ(g.insideCells, 10u * 8u * 6u);
}

TEST(Geometry, HaloIsAlwaysOutside) {
  Room r{RoomShape::Box, 10, 10, 10};
  const RoomGrid g = voxelize(r);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      EXPECT_EQ(g.nbrs[r.index(x, y, 0)], 0);
      EXPECT_EQ(g.nbrs[r.index(x, y, 9)], 0);
      EXPECT_EQ(g.nbrs[r.index(x, 0, y)], 0);
      EXPECT_EQ(g.nbrs[r.index(0, x, y)], 0);
    }
  }
}

TEST(Geometry, InteriorPointsHaveSixNeighbors) {
  Room r{RoomShape::Box, 10, 10, 10};
  const RoomGrid g = voxelize(r);
  EXPECT_EQ(g.nbrs[r.index(5, 5, 5)], 6);
  // A face-center boundary point has 5, an edge point 4, a corner 3.
  EXPECT_EQ(g.nbrs[r.index(1, 5, 5)], 5);
  EXPECT_EQ(g.nbrs[r.index(1, 1, 5)], 4);
  EXPECT_EQ(g.nbrs[r.index(1, 1, 1)], 3);
}

TEST(Geometry, BoundaryIndicesAscendingAndConsistent) {
  Room r{RoomShape::Dome, 24, 20, 16};
  const RoomGrid g = voxelize(r);
  ASSERT_FALSE(g.boundaryIndices.empty());
  for (std::size_t i = 1; i < g.boundaryIndices.size(); ++i) {
    EXPECT_LT(g.boundaryIndices[i - 1], g.boundaryIndices[i]);
  }
  for (std::size_t i = 0; i < g.boundaryIndices.size(); ++i) {
    const int nbr = g.nbrs[static_cast<std::size_t>(g.boundaryIndices[i])];
    EXPECT_GT(nbr, 0);
    EXPECT_LT(nbr, 6);
    EXPECT_EQ(nbr, g.boundaryNbr[i]);
  }
}

TEST(Geometry, EveryLowNbrInsideCellIsListedAsBoundary) {
  Room r{RoomShape::Cylinder, 20, 18, 12};
  const RoomGrid g = voxelize(r);
  std::size_t expected = 0;
  for (int v : g.nbrs) {
    if (v > 0 && v < 6) ++expected;
  }
  EXPECT_EQ(g.boundaryPoints(), expected);
}

TEST(Geometry, DomeHasFewerBoundaryPointsThanBoxAtPaperSizes) {
  // Table II: dome boundary counts are below box counts at every size.
  for (int n : {24, 32}) {
    Room box{RoomShape::Box, n, n, n};
    Room dome{RoomShape::Dome, n, n, n};
    EXPECT_LT(voxelize(dome).boundaryPoints(), voxelize(box).boundaryPoints());
  }
}

TEST(Geometry, DomeIsSmallerVolumeThanBox) {
  Room box{RoomShape::Box, 30, 26, 22};
  Room dome{RoomShape::Dome, 30, 26, 22};
  const auto vb = voxelize(box).insideCells;
  const auto vd = voxelize(dome).insideCells;
  EXPECT_LT(vd, vb);
  // An ellipsoid fills pi/6 ≈ 52% of its bounding box.
  EXPECT_NEAR(static_cast<double>(vd) / vb, 0.5236, 0.05);
}

TEST(Geometry, LShapeRemovesOneQuadrant) {
  Room l{RoomShape::LShape, 22, 22, 12};
  Room box{RoomShape::Box, 22, 22, 12};
  const auto vl = voxelize(l).insideCells;
  const auto vb = voxelize(box).insideCells;
  EXPECT_NEAR(static_cast<double>(vl) / vb, 0.75, 0.05);
}

TEST(Geometry, MaterialBandsCoverAllIds) {
  Room r{RoomShape::Box, 16, 16, 16};
  const RoomGrid g = voxelize(r, 3);
  std::set<int> seen(g.material.begin(), g.material.end());
  EXPECT_EQ(seen.size(), 3u);
  for (int m : g.material) {
    EXPECT_GE(m, 0);
    EXPECT_LT(m, 3);
  }
}

TEST(Geometry, SingleMaterialByDefault) {
  Room r{RoomShape::Box, 10, 10, 10};
  const RoomGrid g = voxelize(r);
  for (int m : g.material) EXPECT_EQ(m, 0);
}

TEST(Geometry, PaperRoomsListTableIISizes) {
  const auto rooms = paperRooms(RoomShape::Dome);
  ASSERT_EQ(rooms.size(), 3u);
  // Volume dims from Table II plus the halo on each side.
  EXPECT_EQ(rooms[0].nx, 604);
  EXPECT_EQ(rooms[0].ny, 404);
  EXPECT_EQ(rooms[0].nz, 304);
  EXPECT_EQ(rooms[1].nx, 338);
  EXPECT_EQ(rooms[2].nz, 154);
}

TEST(Geometry, TooSmallRoomRejected) {
  Room r{RoomShape::Box, 2, 10, 10};
  EXPECT_THROW(voxelize(r), Error);
}

TEST(Geometry, InsideCellWithoutInsideNeighbourRejected) {
  // Every 3x3x3 room has one inside cell and no other. Its neighbour count,
  // 0, is also the outside marker, so the tiers would disagree on it.
  for (auto shape : {RoomShape::Box, RoomShape::Dome, RoomShape::LShape,
                     RoomShape::Cylinder}) {
    EXPECT_THROW(voxelize(Room{shape, 3, 3, 3}), Error) << shapeName(shape);
  }
  EXPECT_NO_THROW(voxelize(Room{RoomShape::Box, 3, 3, 4}));
}

// hasIsolatedInsideCell is a closed form; a scan of every inside cell's six
// neighbours must agree with it for every shape and every room of 3 to 14
// cells a side (prime, flat and 3-wide grids included).
TEST(Geometry, IsolatedInsideCellPredicateMatchesScan) {
  for (auto shape : {RoomShape::Box, RoomShape::Dome, RoomShape::LShape,
                     RoomShape::Cylinder}) {
    for (int nx = 3; nx <= 14; ++nx) {
      for (int ny = 3; ny <= 14; ++ny) {
        for (int nz = 3; nz <= 14; ++nz) {
          const Room room{shape, nx, ny, nz};
          bool isolated = false;
          for (int z = 1; z <= nz - 2; ++z) {
            for (int y = 1; y <= ny - 2; ++y) {
              for (int x = 1; x <= nx - 2; ++x) {
                isolated |= room.inside(x, y, z) &&
                            !room.inside(x - 1, y, z) &&
                            !room.inside(x + 1, y, z) &&
                            !room.inside(x, y - 1, z) &&
                            !room.inside(x, y + 1, z) &&
                            !room.inside(x, y, z - 1) &&
                            !room.inside(x, y, z + 1);
              }
            }
          }
          ASSERT_EQ(hasIsolatedInsideCell(room), isolated)
              << shapeName(shape) << " " << nx << "x" << ny << "x" << nz;
        }
      }
    }
  }
}

TEST(Geometry, ShapeNames) {
  EXPECT_STREQ(shapeName(RoomShape::Box), "box");
  EXPECT_STREQ(shapeName(RoomShape::Dome), "dome");
}

TEST(Geometry, Int32OverflowingGridRejected) {
  // 2000^3 = 8e9 flat indices overflow int32; the guard fires before any
  // allocation, so this is cheap.
  Room r{RoomShape::Box, 2000, 2000, 2000};
  EXPECT_THROW(voxelize(r), Error);
  // The largest paper room stays comfortably addressable.
  EXPECT_NO_THROW(voxelize(Room{RoomShape::Box, 20, 18, 14}));
}

TEST(Geometry, InteriorRunPlanInvariantsAllShapes) {
  for (auto shape : {RoomShape::Box, RoomShape::Dome, RoomShape::LShape,
                     RoomShape::Cylinder}) {
    Room r{shape, 20, 17, 13};
    const RoomGrid g = voxelize(r);
    const auto& plan = g.interiorRuns;
    ASSERT_EQ(plan.runBegin.size(), plan.runLen.size());

    // Interior + boundary partitions the inside cells.
    EXPECT_EQ(plan.interiorCells + g.boundaryPoints(), g.insideCells)
        << shapeName(shape);

    std::size_t total = 0;
    std::int64_t prevEnd = -1;
    std::vector<bool> covered(g.cells(), false);
    for (std::size_t rI = 0; rI < plan.runs(); ++rI) {
      const std::int64_t b = plan.runBegin[rI];
      const std::int64_t e = b + plan.runLen[rI];
      ASSERT_GE(plan.runLen[rI], 1);
      // Ascending, disjoint and maximal: a maximal run is preceded and
      // followed by a non-interior cell, so it can't touch its neighbor.
      EXPECT_GT(b, prevEnd) << shapeName(shape);
      EXPECT_GT(b, 0);
      EXPECT_LT(e, static_cast<std::int64_t>(g.cells()));
      EXPECT_NE(g.nbrs[static_cast<std::size_t>(b - 1)], 6);
      EXPECT_NE(g.nbrs[static_cast<std::size_t>(e)], 6);
      for (std::int64_t idx = b; idx < e; ++idx) {
        EXPECT_EQ(g.nbrs[static_cast<std::size_t>(idx)], 6);
        covered[static_cast<std::size_t>(idx)] = true;
      }
      total += static_cast<std::size_t>(plan.runLen[rI]);
      prevEnd = e;
    }
    EXPECT_EQ(total, plan.interiorCells) << shapeName(shape);
    // Every nbr==6 cell is covered by exactly one run.
    for (std::size_t i = 0; i < g.cells(); ++i) {
      EXPECT_EQ(covered[i], g.nbrs[i] == 6) << shapeName(shape) << " @" << i;
    }
  }
}

TEST(Geometry, VoxelizeCachedReturnsSharedGrid) {
  Room r{RoomShape::LShape, 14, 12, 10};
  const auto a = voxelizeCached(r, 2);
  const auto b = voxelizeCached(r, 2);
  EXPECT_EQ(a.get(), b.get());  // one voxelization, shared
  // Different material count or dims is a different cache entry.
  EXPECT_NE(a.get(), voxelizeCached(r, 3).get());
  Room r2 = r;
  r2.nz = 11;
  EXPECT_NE(a.get(), voxelizeCached(r2, 2).get());
  // The cached grid matches a fresh voxelization.
  const RoomGrid fresh = voxelize(r, 2);
  EXPECT_EQ(a->nbrs, fresh.nbrs);
  EXPECT_EQ(a->boundaryIndices, fresh.boundaryIndices);
  EXPECT_EQ(a->interiorRuns.runBegin, fresh.interiorRuns.runBegin);
  EXPECT_EQ(a->interiorRuns.runLen, fresh.interiorRuns.runLen);
}

TEST(Geometry, VoxelCacheEvictsLeastRecentlyUsed) {
  // The cache is process-global and monotonic-countered, so work in deltas
  // and restore the default capacity afterwards.
  clearVoxelCache();
  setVoxelCacheCapacity(2);
  const auto base = voxelCacheStats();
  EXPECT_EQ(base.entries, 0u);
  EXPECT_EQ(base.capacity, 2u);

  const Room a{RoomShape::Box, 10, 9, 8};
  const Room b{RoomShape::Dome, 10, 9, 8};
  const Room c{RoomShape::Cylinder, 10, 9, 8};

  const auto gridA = voxelizeCached(a);  // miss: {A}
  voxelizeCached(b);                     // miss: {B, A}
  voxelizeCached(a);                     // hit:  {A, B}
  voxelizeCached(c);                     // miss, evicts LRU B: {C, A}
  auto s = voxelCacheStats();
  EXPECT_EQ(s.misses - base.misses, 3u);
  EXPECT_EQ(s.hits - base.hits, 1u);
  EXPECT_EQ(s.evictions - base.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  // A stayed (it was touched after B): hit. B was evicted: miss again.
  EXPECT_EQ(voxelizeCached(a).get(), gridA.get());
  voxelizeCached(b);  // re-voxelizes, evicting LRU C
  s = voxelCacheStats();
  EXPECT_EQ(s.misses - base.misses, 4u);
  EXPECT_EQ(s.hits - base.hits, 2u);
  EXPECT_EQ(s.evictions - base.evictions, 2u);

  // An evicted grid stays alive through handed-out shared_ptrs.
  voxelizeCached(c);  // evicts A (LRU)
  EXPECT_EQ(gridA->cells(), a.cells());
  EXPECT_EQ(gridA->nbrs.size(), a.cells());

  // Shrinking the capacity evicts immediately; hitRate is consistent.
  setVoxelCacheCapacity(1);
  s = voxelCacheStats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.capacity, 1u);
  EXPECT_GT(s.hitRate(), 0.0);
  EXPECT_THROW(setVoxelCacheCapacity(0), Error);

  setVoxelCacheCapacity(kDefaultVoxelCacheCapacity);
  clearVoxelCache();
}

TEST(Geometry, BoundaryClassPlanPartitionsBoundarySetAllShapes) {
  // Every boundary point lands in exactly one topology class; the sorted
  // arrays are the permutation of the original boundary arrays given by
  // `order`; within a class, slots keep ascending cell-index order; and
  // each class's nbr invariant holds (faces 5, edge 4, corner <= 3).
  for (auto shape : {RoomShape::Box, RoomShape::Dome, RoomShape::LShape,
                     RoomShape::Cylinder}) {
    Room r{shape, 20, 17, 13};
    const RoomGrid g = voxelize(r, 3);
    const auto& cp = g.boundaryClasses;
    const auto numB = g.boundaryPoints();
    ASSERT_EQ(cp.order.size(), numB) << shapeName(shape);
    ASSERT_EQ(cp.cellSorted.size(), numB);
    ASSERT_EQ(cp.nbrSorted.size(), numB);
    ASSERT_EQ(cp.matSorted.size(), numB);
    EXPECT_EQ(cp.classBegin.front(), 0);
    EXPECT_EQ(static_cast<std::size_t>(cp.classBegin.back()), numB);

    std::vector<bool> seen(numB, false);
    for (int c = 0; c < kNumBoundaryClasses; ++c) {
      ASSERT_LE(cp.classBegin[static_cast<std::size_t>(c)],
                cp.classBegin[static_cast<std::size_t>(c) + 1]);
      for (std::int32_t slot = cp.classBegin[static_cast<std::size_t>(c)];
           slot < cp.classBegin[static_cast<std::size_t>(c) + 1]; ++slot) {
        const auto s = static_cast<std::size_t>(slot);
        const auto p = static_cast<std::size_t>(cp.order[s]);
        ASSERT_LT(p, numB);
        ASSERT_FALSE(seen[p]) << shapeName(shape) << " slot " << slot;
        seen[p] = true;
        EXPECT_EQ(cp.cellSorted[s], g.boundaryIndices[p]);
        EXPECT_EQ(cp.nbrSorted[s], g.boundaryNbr[p]);
        EXPECT_EQ(cp.matSorted[s], g.material[p]);
        if (c < kBoundaryClassEdge) {
          EXPECT_EQ(cp.nbrSorted[s], 5) << shapeName(shape);
        } else if (c == kBoundaryClassEdge) {
          EXPECT_EQ(cp.nbrSorted[s], 4) << shapeName(shape);
        } else {
          EXPECT_LE(cp.nbrSorted[s], 3) << shapeName(shape);
        }
        if (slot > cp.classBegin[static_cast<std::size_t>(c)]) {
          EXPECT_LT(cp.cellSorted[s - 1], cp.cellSorted[s])
              << shapeName(shape) << " class " << boundaryClassName(c);
        }
      }
    }
    // Union of the classes is the whole boundary set.
    for (std::size_t p = 0; p < numB; ++p) {
      ASSERT_TRUE(seen[p]) << shapeName(shape) << " point " << p;
    }
  }
}

TEST(Geometry, FaceClassMatchesMissingAxisNeighbor) {
  // A face class's index names the one outside axis neighbor, in the
  // (-x,+x,-y,+y,-z,+z) order.
  for (auto shape : {RoomShape::Box, RoomShape::LShape}) {
    Room r{shape, 18, 15, 12};
    const RoomGrid g = voxelize(r);
    const auto& cp = g.boundaryClasses;
    const std::array<std::array<int, 3>, 6> dir{{{-1, 0, 0},
                                                 {1, 0, 0},
                                                 {0, -1, 0},
                                                 {0, 1, 0},
                                                 {0, 0, -1},
                                                 {0, 0, 1}}};
    for (int c = 0; c < kBoundaryClassEdge; ++c) {
      for (std::int32_t slot = cp.classBegin[static_cast<std::size_t>(c)];
           slot < cp.classBegin[static_cast<std::size_t>(c) + 1]; ++slot) {
        const auto idx =
            static_cast<std::size_t>(cp.cellSorted[static_cast<std::size_t>(slot)]);
        const int x = static_cast<int>(idx % static_cast<std::size_t>(r.nx));
        const auto rest = idx / static_cast<std::size_t>(r.nx);
        const int y = static_cast<int>(rest % static_cast<std::size_t>(r.ny));
        const int z = static_cast<int>(rest / static_cast<std::size_t>(r.ny));
        EXPECT_EQ(g.nbrs[r.index(x + dir[static_cast<std::size_t>(c)][0],
                                 y + dir[static_cast<std::size_t>(c)][1],
                                 z + dir[static_cast<std::size_t>(c)][2])],
                  0)
            << shapeName(shape) << " " << boundaryClassName(c) << " @ ("
            << x << "," << y << "," << z << ")";
      }
    }
  }
}

TEST(Geometry, PlanBoundaryLaunchesInvariantsAllShapes) {
  for (auto shape : {RoomShape::Box, RoomShape::Dome, RoomShape::LShape}) {
    Room r{shape, 20, 17, 13};
    const RoomGrid g = voxelize(r);
    const auto& cp = g.boundaryClasses;
    const auto numB = static_cast<std::int32_t>(g.boundaryPoints());
    std::size_t nonEmpty = 0;
    for (int c = 0; c < kNumBoundaryClasses; ++c) {
      nonEmpty += cp.classCount(c) > 0 ? 1u : 0u;
    }
    for (std::int32_t minPoints : {0, 64, 256, 1 << 30}) {
      const auto launches = planBoundaryLaunches(cp, minPoints);
      ASSERT_FALSE(launches.empty()) << shapeName(shape);
      // Launches tile [0, numB) contiguously with whole-class boundaries.
      EXPECT_EQ(launches.front().begin, 0);
      EXPECT_EQ(launches.back().end, numB);
      for (std::size_t k = 0; k < launches.size(); ++k) {
        const auto& l = launches[k];
        ASSERT_LT(l.begin, l.end);
        if (k > 0) {
          EXPECT_EQ(l.begin, launches[k - 1].end);
        }
        EXPECT_EQ(l.begin,
                  cp.classBegin[static_cast<std::size_t>(l.classFirst)]);
        EXPECT_EQ(l.end,
                  cp.classBegin[static_cast<std::size_t>(l.classLast) + 1]);
        // fixedNbr is exactly the uniform nbr of the covered slots, -1
        // when they mix.
        std::int32_t uniform = cp.nbrSorted[static_cast<std::size_t>(l.begin)];
        for (std::int32_t j = l.begin + 1; j < l.end && uniform >= 0; ++j) {
          if (cp.nbrSorted[static_cast<std::size_t>(j)] != uniform) {
            uniform = -1;
          }
        }
        EXPECT_EQ(l.fixedNbr, uniform)
            << shapeName(shape) << " minPoints=" << minPoints << " launch "
            << k;
      }
      if (minPoints == 0) {
        // Pure fission: one launch per non-empty class.
        EXPECT_EQ(launches.size(), nonEmpty) << shapeName(shape);
      }
    }
  }
}

TEST(Geometry, TrailingMergeNeverDeSpecializesUniformLaunch) {
  // The 8 corners (nbr 3 in a box) stay a separate tiny launch rather than
  // being folded into the branch-free nbr-4 edge launch (which would force
  // the whole edge class through the mixed fallback kernel).
  Room r{RoomShape::Box, 20, 17, 13};
  const RoomGrid g = voxelize(r);
  const auto& cp = g.boundaryClasses;
  ASSERT_EQ(cp.classCount(kBoundaryClassCorner), 8);
  ASSERT_GE(cp.classCount(kBoundaryClassEdge), 64);
  const auto launches = planBoundaryLaunches(cp, 64);
  const auto& tail = launches.back();
  EXPECT_EQ(tail.classFirst, kBoundaryClassCorner);
  EXPECT_EQ(tail.count(), 8);
  const auto& edge = launches[launches.size() - 2];
  EXPECT_EQ(edge.classLast, kBoundaryClassEdge);
  EXPECT_EQ(edge.fixedNbr, 4);
}

TEST(Geometry, GridIndexableInt32Guard) {
  // The predicate the voxelizer's overflow guard and the job service's
  // admission check share.
  EXPECT_TRUE(gridIndexableInt32(Room{RoomShape::Box, 100, 100, 100}));
  EXPECT_TRUE(gridIndexableInt32(Room{RoomShape::Box, 1290, 1290, 1290}));
  EXPECT_FALSE(gridIndexableInt32(Room{RoomShape::Box, 1300, 1300, 1300}));
}

TEST(Geometry, BoxRoomFromMetersRoundsAndAddsHalo) {
  // 5 m at h = 0.5 m -> 10 interior cells + 2 halo.
  const Room r = boxRoomFromMeters(5.0, 2.5, 1.2, 0.5);
  EXPECT_EQ(r.shape, RoomShape::Box);
  EXPECT_EQ(r.nx, 12);
  EXPECT_EQ(r.ny, 7);   // 2.5 / 0.5 = 5 interior
  EXPECT_EQ(r.nz, 4);   // round(2.4) = 2 interior
  // A room smaller than one cell still gets one interior cell: a 3x3x3
  // grid, which voxelize refuses (hasIsolatedInsideCell).
  const Room tiny = boxRoomFromMeters(0.1, 0.1, 0.1, 1.0);
  EXPECT_EQ(tiny.nx, 3);
  EXPECT_EQ(tiny.ny, 3);
  EXPECT_EQ(tiny.nz, 3);
}

TEST(Geometry, CellForPositionSnapsAndClamps) {
  // n = 12: interior cells 1..10, each 0.5 m wide starting at the minimum
  // corner. 0.75 m falls in the second interior cell.
  EXPECT_EQ(cellForPosition(0.75, 0.5, 12), 2);
  EXPECT_EQ(cellForPosition(0.0, 0.5, 12), 1);    // at the wall -> first
  EXPECT_EQ(cellForPosition(-1.0, 0.5, 12), 1);   // clamped low
  EXPECT_EQ(cellForPosition(100.0, 0.5, 12), 10); // clamped high
  // Positions map into the interior of the grid boxRoomFromMeters built.
  const Room r = boxRoomFromMeters(5.0, 5.0, 5.0, 0.5);
  EXPECT_TRUE(r.inside(cellForPosition(4.99, 0.5, r.nx),
                       cellForPosition(2.5, 0.5, r.ny),
                       cellForPosition(0.01, 0.5, r.nz)));
}

}  // namespace
}  // namespace lifta::acoustics
