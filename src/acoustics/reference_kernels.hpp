// Portable C++ reference implementations of the paper's kernels
// (Listings 1-4). These are the correctness oracle: the hand-written
// "OpenCL" baselines and the LIFT-generated kernels must match them
// bit-for-bit (same operation order, same FP environment).
//
// All functions operate on flat grids with idx = z*Nx*Ny + y*Nx + x and use
// the buffer roles of the paper: `prev` (t-2), `curr` (t-1), `next` (t).
//
// The listing kernels (refFusedFiLookup, refVolume, refFiBoundary,
// refFiMmBoundary, refFdMmBoundary) are whole-grid, exactly as the paper
// writes them: they are the pointwise oracles the other tiers and the
// stepper are tested against. Simulation<T> steps with the ranged
// interior-run and boundary-class kernels below, which perform the identical
// per-cell arithmetic over disjoint ranges, so any partition of the grid
// reproduces the listing kernels bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lifta::acoustics {

/// Listing 1: the monolithic FI kernel with the *analytic* box boundary
/// test (nbr computed on the fly from coordinates). Box rooms only.
template <typename T>
void refFusedFiBox(const T* prev, const T* curr, T* next, int nx, int ny,
                   int nz, T l, T l2, T beta);

/// refFusedFiBox restricted to z in [z0, z1).
template <typename T>
void refFusedFiBoxSlab(const T* prev, const T* curr, T* next, int nx, int ny,
                       int nz, int z0, int z1, T l, T l2, T beta);

/// Listing 1 variant of §II-B: nbr comes from the precomputed lookup table,
/// supporting arbitrary shapes; boundary handling still fused.
template <typename T>
void refFusedFiLookup(const std::int32_t* nbrs, const T* prev, const T* curr,
                      T* next, int nx, int ny, int nz, T l, T l2, T beta);

/// Listing 2, kernel 1: volume handling only (shared by FI-MM and FD-MM).
template <typename T>
void refVolume(const std::int32_t* nbrs, const T* prev, const T* curr,
               T* next, int nx, int ny, int nz, T l2);

// ---- Interior-run kernels ------------------------------------------------
//
// These consume the InteriorRunPlan built at voxelization time instead of
// branching on nbrs per cell. Pure-interior cells (nbr == 6) are updated by
// a branch-free, nbrs-free inner loop over each run — the per-cell
// coefficient (2 - l2*nbr) collapses to the loop-invariant 2 - l2*6, the
// same operations in the same order, so the compiler can vectorize the
// 7-point stencil while the result stays bit-identical to the lookup
// kernels. The residual boundary-adjacent cells (exactly the grid's
// boundaryIndices) are updated by the matching per-cell formula of the
// lookup kernel they replace. The ranged forms let the stepper run one
// slab's runs and residual cells per task.

/// Branch-free interior update over runs r in [r0, r1) of the plan.
template <typename T>
void refVolumeRunsRange(const std::int64_t* runBegin,
                        const std::int32_t* runLen, std::size_t r0,
                        std::size_t r1, const T* prev, const T* curr, T* next,
                        int nx, int ny, T l2);

/// Generic-volume residual: boundary cells i in [i0, i1) get the Listing 2
/// volume formula (2 - l2*nbr)*curr + l2*s - prev, as refVolume does.
template <typename T>
void refVolumeResidualRange(const std::int32_t* boundaryIndices,
                            const std::int32_t* boundaryNbr, std::int64_t i0,
                            std::int64_t i1, const T* prev, const T* curr,
                            T* next, int nx, int ny, T l2);

/// Fused-FI residual: boundary cells i in [i0, i1) get the Listing 1 fused
/// boundary formula, as refFusedFiLookup does for nbr < 6.
template <typename T>
void refFusedFiResidualRange(const std::int32_t* boundaryIndices,
                             const std::int32_t* boundaryNbr, std::int64_t i0,
                             std::int64_t i1, const T* prev, const T* curr,
                             T* next, int nx, int ny, T l, T l2, T beta);

/// Full-grid run-plan form of refVolume: interior runs + generic residual.
/// Bit-identical to refVolume on any voxelized grid.
template <typename T>
void refVolumeRuns(const std::int64_t* runBegin, const std::int32_t* runLen,
                   std::size_t numRuns, const std::int32_t* boundaryIndices,
                   const std::int32_t* boundaryNbr,
                   std::int64_t numBoundaryPoints, const T* prev,
                   const T* curr, T* next, int nx, int ny, T l2);

/// Full-grid run-plan form of refFusedFiLookup: interior runs + fused-FI
/// residual. Bit-identical to refFusedFiLookup on any voxelized grid.
template <typename T>
void refFusedFiRuns(const std::int64_t* runBegin, const std::int32_t* runLen,
                    std::size_t numRuns, const std::int32_t* boundaryIndices,
                    const std::int32_t* boundaryNbr,
                    std::int64_t numBoundaryPoints, const T* prev,
                    const T* curr, T* next, int nx, int ny, T l, T l2,
                    T beta);

/// Listing 2, kernel 2: single-material boundary absorption, in place.
template <typename T>
void refFiBoundary(const std::int32_t* boundaryIndices,
                   const std::int32_t* nbrs, const T* prev, T* next,
                   std::int64_t numBoundaryPoints, T l, T beta);

/// Listing 3: FI-MM — multi-material frequency-independent boundary.
template <typename T>
void refFiMmBoundary(const std::int32_t* boundaryIndices,
                     const std::int32_t* nbrs, const std::int32_t* material,
                     const T* beta, const T* prev, T* next,
                     std::int64_t numBoundaryPoints, T l);

/// Listing 4: FD-MM — frequency-dependent multi-material boundary with MB
/// ODE branches. BI/D/DI/F are flattened [material][branch]; g1/v1/v2 are
/// flattened [branch][boundaryPoint] (ci = b*numBoundaryPoints + i), with
/// v1 written and v2 read (the driver swaps them between steps).
template <typename T>
void refFdMmBoundary(const std::int32_t* boundaryIndices,
                     const std::int32_t* nbrs, const std::int32_t* material,
                     const T* beta, const T* BI, const T* D, const T* DI,
                     const T* F, int numBranches, const T* prev, T* next,
                     T* g1, T* v1, const T* v2,
                     std::int64_t numBoundaryPoints, T l);

// ---- Boundary class kernels ----------------------------------------------
//
// Per-topology-class forms of the boundary kernels (Listings 2-4), operating
// on slot ranges [j0, j1) of the BoundaryClassPlan's class-major sorted
// layout. The *Class* forms take the class's uniform neighbor count as a
// scalar, so the per-point nbrs gather and the data-dependent coefficient
// select of the listing kernels disappear: the coefficient subexpressions
// that depend only on nbr are hoisted out of the loop with their original
// left-to-right association preserved, so every point's arithmetic is the
// identical operations in the identical order — bit-identical to the
// original-order kernels (points write disjoint cells and, for FD-MM,
// disjoint branch-state rows, so reordering points never changes bits).
// The *Mixed* forms are the fused fallback for launches coalescing classes
// with differing nbr (per-slot nbrSorted load — still a streaming read of
// the sorted layout rather than a full-grid nbrs gather).
//
// FD-MM branch state stays laid out over the FULL boundary set by original
// position: class kernels index g1/v1/v2 through origPos (the plan's
// order[] slice) with the unchanged numBoundaryPoints stride — the layout
// refFdMmBoundary, the LIFT class kernels and checkpoint v1 all share.

template <typename T>
void refFiClassRange(const std::int32_t* cellSorted, int nbr, const T* prev,
                     T* next, std::int64_t j0, std::int64_t j1, T l, T beta);

template <typename T>
void refFiMixedRange(const std::int32_t* cellSorted,
                     const std::int32_t* nbrSorted, const T* prev, T* next,
                     std::int64_t j0, std::int64_t j1, T l, T beta);

template <typename T>
void refFiMmClassRange(const std::int32_t* cellSorted,
                       const std::int32_t* matSorted, int nbr, const T* beta,
                       const T* prev, T* next, std::int64_t j0,
                       std::int64_t j1, T l);

template <typename T>
void refFiMmMixedRange(const std::int32_t* cellSorted,
                       const std::int32_t* nbrSorted,
                       const std::int32_t* matSorted, const T* beta,
                       const T* prev, T* next, std::int64_t j0,
                       std::int64_t j1, T l);

/// FD-MM class kernel; the branch loops are unrolled internally for each
/// numBranches value (same operations in the same order as the runtime
/// loop, so unrolling preserves bits).
template <typename T>
void refFdMmClassRange(const std::int32_t* cellSorted,
                       const std::int32_t* matSorted,
                       const std::int32_t* origPos, int nbr, const T* beta,
                       const T* BI, const T* D, const T* DI, const T* F,
                       int numBranches, const T* prev, T* next, T* g1, T* v1,
                       const T* v2, std::int64_t numBoundaryPoints,
                       std::int64_t j0, std::int64_t j1, T l);

template <typename T>
void refFdMmMixedRange(const std::int32_t* cellSorted,
                       const std::int32_t* nbrSorted,
                       const std::int32_t* matSorted,
                       const std::int32_t* origPos, const T* beta, const T* BI,
                       const T* D, const T* DI, const T* F, int numBranches,
                       const T* prev, T* next, T* g1, T* v1, const T* v2,
                       std::int64_t numBoundaryPoints, std::int64_t j0,
                       std::int64_t j1, T l);

// The FD kernels use a small fixed upper bound for the per-point private
// branch state, as the CUDA original does with its MB compile-time constant.
inline constexpr int kMaxBranches = 8;

}  // namespace lifta::acoustics
