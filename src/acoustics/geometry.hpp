// Room geometry and voxelization (paper §II-B).
//
// Rooms are implicit solids voxelized onto the FDTD grid. The grid uses the
// layout of Listing 1: idx = z*Nx*Ny + y*Nx + x, with a one-cell halo around
// the volume so stencil reads never leave the allocation. For every cell the
// voxelizer precomputes `nbrs` — the number of 6-neighbors lying inside the
// room (0 for cells outside) — plus the sorted list of boundary cell indices
// (inside cells with nbr < 6) and a per-boundary-point material id. These
// are exactly the nbrs / boundaryIndices / material arrays of Listings 2-4.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace lifta::acoustics {

enum class RoomShape {
  Box,       // full cuboid interior (the paper's "box")
  Dome,      // ellipsoid inscribed in the grid (the paper's "dome")
  LShape,    // cuboid minus one quadrant (extra non-convex test shape)
  Cylinder,  // vertical cylinder inscribed in x/y (extra test shape)
};

const char* shapeName(RoomShape s);

struct Room {
  RoomShape shape = RoomShape::Box;
  // Full grid dimensions *including* the halo, as in Table II
  // (e.g. 602 x 402 x 302).
  int nx = 0;
  int ny = 0;
  int nz = 0;

  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }

  /// True when interior coordinates (x,y,z), each in [1, n-2], lie inside
  /// the room solid.
  bool inside(int x, int y, int z) const;

  std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * static_cast<std::size_t>(ny) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(x);
  }
};

/// The paper's three room sizes (Table II).
std::vector<Room> paperRooms(RoomShape shape);

/// Grid for a physical box room of interior size (lx, ly, lz) meters at
/// grid spacing h (SimParams::h()): each dimension gets round(L/h) interior
/// cells (at least 1) plus the two-cell halo. A room under about 1.5 h on
/// every side maps to 3x3x3, which voxelize() refuses
/// (hasIsolatedInsideCell). The hybrid ISM+FDTD tier and
/// the batch dataset API use this to derive the FDTD grid from the same
/// continuous room the image-source engine simulates.
Room boxRoomFromMeters(double lx, double ly, double lz, double h);

/// Interior grid coordinate of a physical position `meters` from the
/// room's minimum corner at spacing h, for a dimension of n cells
/// including halo: cell 1 + floor(meters / h), clamped into [1, n - 2] so
/// positions near a wall land on the closest inside cell.
int cellForPosition(double meters, double h, int n);

/// Interior-run execution plan: the maximal contiguous runs of
/// pure-interior cells (nbr == 6), in ascending flat-index order, computed
/// once at voxelization time. Volume kernels that consume the plan touch
/// interior cells with a branch-free, nbrs-free inner loop (the compiler
/// can vectorize the 7-point stencil over a run) and handle the residual
/// boundary-adjacent cells — exactly the grid's boundaryIndices — with the
/// generic lookup formula. Runs never cross a grid row: the halo breaks
/// flat-index contiguity at every row end.
struct InteriorRunPlan {
  std::vector<std::int64_t> runBegin;  // flat cell index of each run start
  std::vector<std::int32_t> runLen;    // cells per run (>= 1)
  std::size_t interiorCells = 0;       // sum of runLen

  std::size_t runs() const { return runBegin.size(); }
};

// ---- Boundary topology classes -------------------------------------------
//
// Boundary points are partitioned by local topology: the six *face* classes
// (nbr == 5, one per missing axis neighbor), the *edge* class (nbr == 4) and
// the *corner* class (nbr <= 3). Within a class the update coefficient
// depends only on the class (faces and edges have a uniform nbr), so a
// per-class kernel needs no per-point nbr load and no data-dependent
// coefficient select — the boundary pass becomes a handful of branch-free
// streaming loops over class-sorted point lists instead of one mixed
// scatter over the original interleaved order.

inline constexpr int kNumBoundaryClasses = 8;
inline constexpr int kBoundaryClassEdge = 6;    // nbr == 4
inline constexpr int kBoundaryClassCorner = 7;  // nbr <= 3 (mixed nbr)

/// Class names, index-aligned: "face-x","face+x","face-y","face+y",
/// "face-z","face+z","edge","corner".
const char* boundaryClassName(int cls);

/// The uniform neighbor count of a class, or -1 for the corner class whose
/// points mix nbr values 0..3.
inline int boundaryClassNbr(int cls) {
  return cls < kBoundaryClassEdge ? 5
         : cls == kBoundaryClassEdge ? 4
                                     : -1;
}

/// Class-major sorted layout of the boundary set, built once at
/// voxelization time. Slots [classBegin[c], classBegin[c+1]) hold class c's
/// points; within a class, slots keep ascending cell-index order (the
/// memory-continuity order of the original boundaryIndices scan).
/// `order[slot]` is the point's position in the original boundary arrays —
/// FD-MM branch state (g1/v1/v2) stays laid out over the full boundary set
/// by original position, so class kernels index state through `order` and
/// checkpoints stay layout-compatible.
struct BoundaryClassPlan {
  std::array<std::int32_t, kNumBoundaryClasses + 1> classBegin{};
  std::vector<std::int32_t> order;       // slot -> original boundary position
  std::vector<std::int32_t> cellSorted;  // flat cell index per slot
  std::vector<std::int32_t> nbrSorted;   // neighbor count per slot
  std::vector<std::int32_t> matSorted;   // material id per slot

  std::int32_t classCount(int cls) const {
    return classBegin[static_cast<std::size_t>(cls) + 1] -
           classBegin[static_cast<std::size_t>(cls)];
  }
};

/// One boundary kernel launch: a contiguous slot range covering whole
/// classes [classFirst, classLast]. `fixedNbr` is the uniform neighbor
/// count when every point in the range shares one (a branch-free kernel
/// body applies), or -1 when the range mixes nbr values (the fused
/// fallback: per-point nbrSorted load).
struct BoundaryLaunch {
  std::int32_t begin = 0;
  std::int32_t end = 0;
  std::int32_t fixedNbr = -1;
  int classFirst = 0;
  int classLast = 0;

  std::int32_t count() const { return end - begin; }
};

/// Greedy launch planner with a fused fallback: every class with at least
/// `minPoints` points gets its own launch; consecutive smaller classes are
/// coalesced until the accumulated count reaches `minPoints`, and a tiny
/// trailing launch is merged into its predecessor. Coalescing whole classes
/// keeps every class inside exactly one launch. A launch that merges
/// classes with differing nbr gets fixedNbr = -1. minPoints = 0 yields one
/// launch per non-empty class (pure fission).
std::vector<BoundaryLaunch> planBoundaryLaunches(const BoundaryClassPlan& plan,
                                                 std::int32_t minPoints);

/// Default fused-fallback threshold for device-tier launch planning: below
/// this many points a separate kernel launch costs more than the uniform
/// body saves.
inline constexpr std::int32_t kBoundaryFissionMinPoints = 256;

/// Precomputed boundary description.
struct RoomGrid {
  int nx = 0, ny = 0, nz = 0;
  std::vector<std::int32_t> nbrs;             // per cell; 0 outside
  std::vector<std::int32_t> boundaryIndices;  // ascending cell indices
  std::vector<std::int32_t> boundaryNbr;      // nbr per boundary point
  std::vector<std::int32_t> material;         // material id per boundary point
  InteriorRunPlan interiorRuns;               // nbr == 6 cells as maximal runs
  BoundaryClassPlan boundaryClasses;          // class-major sorted layout
  std::size_t insideCells = 0;

  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }
  std::size_t boundaryPoints() const { return boundaryIndices.size(); }
};

/// Voxelizes the room and assigns materials. Materials are distributed over
/// `numMaterials` ids by horizontal bands (floor→ceiling), a deterministic
/// stand-in for the per-surface material maps of real room models.
RoomGrid voxelize(const Room& room, int numMaterials = 1);

/// Memoized voxelize: repeated configs (same shape, dims and material
/// count — the key a bench sweep and the RIR job service revisit) share one
/// immutable grid instead of re-voxelizing. Thread-safe. The cache is
/// bounded: least-recently-used entries are evicted beyond the capacity set
/// by setVoxelCacheCapacity (grids already handed out stay alive through
/// their shared_ptr; eviction only drops the cache's reference).
std::shared_ptr<const RoomGrid> voxelizeCached(const Room& room,
                                               int numMaterials = 1);

/// Monotonic counters for the process-wide voxelization cache; the job
/// service surfaces the hit rate in its metrics.
struct VoxelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;

  double hitRate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

VoxelCacheStats voxelCacheStats();

/// Sets the entry cap (>= 1), evicting LRU entries immediately if the cache
/// is over the new capacity. Default capacity: kDefaultVoxelCacheCapacity.
void setVoxelCacheCapacity(std::size_t capacity);

/// Drops every cached grid (counters keep accumulating). For tests.
void clearVoxelCache();

inline constexpr std::size_t kDefaultVoxelCacheCapacity = 16;

/// True when the room's flat cell indices fit the int32 indices used by
/// boundaryIndices and the generated kernels. voxelize() refuses larger
/// grids; the job service reuses this guard to reject such jobs at
/// admission, before anything is allocated.
inline bool gridIndexableInt32(const Room& room) {
  return room.cells() <=
         static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
}

/// True when some inside cell of the room has no inside neighbour. Its
/// neighbour count, 0, is also the outside marker, and the two tiers step
/// such a cell differently, so voxelize() refuses the room. For all four
/// shapes that is exactly the 3x3x3 room, whose one interior cell is
/// inside; any wider room gives every inside cell an inside neighbour
/// (Geometry.IsolatedInsideCellPredicateMatchesScan scans every shape). The
/// job service reuses the guard to reject hybrid jobs whose derived grid
/// voxelize() would refuse.
inline bool hasIsolatedInsideCell(const Room& room) {
  return room.nx == 3 && room.ny == 3 && room.nz == 3;
}

/// Closed-form boundary-point count for a box interior of (nx,ny,nz) grid
/// dims including halo: X*Y*Z - (X-2)*(Y-2)*(Z-2) with X = nx-2 etc.
/// Matches Table II exactly for the 336^3 box (673,352 points).
std::size_t boxBoundaryCount(int nx, int ny, int nz);

}  // namespace lifta::acoustics
