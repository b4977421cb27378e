// The paper's room acoustics kernels expressed in the extended LIFT IR
// (§V, Listings 6-8), ready for the code generator.
//
// Data layout notes:
//  * Grids are flat with idx = z*Nx*Ny + y*Nx + x; the stencil reads its six
//    neighbors through explicit ArrayAccess at i±1, i±Nx, i±Nx*Ny — the same
//    addresses LIFT's slide3/pad3 views lower to on this layout.
//  * The FI-MM kernel is Listing 7 verbatim: a Map over zipped boundary data
//    whose body is Concat(Skip(idx), [update], Skip(cells-1-idx)), written
//    in place into `next` via host-level WriteTo (outAliasParam).
//  * The FD-MM kernel is Listing 8: per-point private gathers of the branch
//    state, a branch reduction folded into the pressure update, and a tuple
//    of WriteTo results updating next / g1 / v1 in place.
//
// Every builder keeps scalar operation order identical to the reference
// kernels (src/acoustics/reference_kernels.cpp), so generated code matches
// the hand-written baselines bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/passes.hpp"
#include "memory/kernel_def.hpp"
#include "memory/specialization.hpp"

namespace lifta::lift_acoustics {

/// The constants the device tier specializes a kernel on: its job class's
/// material count (parameter M) and update coefficients (l, l2), for the
/// parameters `def` has. The room's dimensions, sizes and launch counts
/// stay run-time scalars, so every room of a class (precision, model,
/// branch count, materials, Courant number) gets the same specialized
/// source (DESIGN.md §12).
memory::Specialization classSpecialization(const memory::KernelDef& def,
                                           std::int64_t materials, double l,
                                           double l2);

/// Listing 2 kernel 1 (volume handling) in LIFT IR. Output: fresh buffer.
/// Params: prev, curr, nbrs, nx, nxny, cells, l2 (+ implicit out).
memory::KernelDef liftVolumeKernel(ir::ScalarKind real);

/// Listing 1/6: monolithic FI kernel (lookup boundary), single material.
/// Params: prev, curr, nbrs, nx, nxny, cells, l, l2, beta (+ implicit out).
memory::KernelDef liftFusedFiKernel(ir::ScalarKind real);

/// Listing 6's structural form: the volume kernel expressed through the 3D
/// stencil primitives — the flat grid is reshaped with Split into a 3D
/// view, enlarged with pad3 and windowed with slide3, and the update reads
/// the neighborhood as m[1][1][1], m[1][1][0], ... exactly as Listing 6
/// does. Generates the same arithmetic as liftVolumeKernel (validated
/// bitwise by tests); the two differ only in how the views are built.
/// Params: prev, curr, nbrs, nx, ny, nz, cells, l2 (+ implicit out).
memory::KernelDef liftVolumeStencil3DKernel(ir::ScalarKind real);

/// Listing 7: FI-MM boundary kernel, updating `next` in place.
/// Params: boundaryIndices, material, nbrs, beta, next, prev,
///         cells, numB, M, l. outAliasParam = "next".
memory::KernelDef liftFiMmKernel(ir::ScalarKind real);

/// Listing 8: FD-MM boundary kernel (numBranches ODE branches), updating
/// next / g1 / v1 in place (effect-only: no output buffer).
/// Params: boundaryIndices, material, nbrs, beta, BI, D, DI, F,
///         next, prev, g1, v1, v2, cells, numB, M, l.
memory::KernelDef liftFdMmKernel(ir::ScalarKind real, int numBranches);

// ---- Topology-class boundary kernels (fission schedule) -----------------
//
// One specialized kernel per boundary-class launch: the launch's uniform
// neighbor count is baked in as a literal (fixedNbr), eliminating both the
// nbrs gather and the (6 - nbr) data dependence, and the per-class sorted
// sub-buffers (cellSorted / matSorted / origPos slices) replace the global
// boundary lists. Mixed variants cover fused-fallback launches that coalesce
// classes of differing nbr; they read the per-slot neighbor count from a
// nbrSorted sub-buffer instead. Scalar operation order matches the reference
// class kernels (left association preserved under the hoist), so fissioned
// device output is bit-identical to the fused kernels above.

/// FI-MM class kernel with baked neighbor count (5 for faces, 4 for edges).
/// Params: cellSorted, matSorted, beta, next, prev, cells, count, M, l.
/// outAliasParam = "next".
memory::KernelDef liftFiMmClassKernel(ir::ScalarKind real, int fixedNbr);

/// FI-MM mixed-fallback kernel for coalesced launches: per-slot nbr gather.
/// Params: cellSorted, matSorted, nbrSorted, beta, next, prev, cells,
///         count, M, l. outAliasParam = "next".
memory::KernelDef liftFiMmClassMixedKernel(ir::ScalarKind real);

/// FD-MM class kernel with baked neighbor count. The branch state is still
/// indexed by the point's *original* position (origPos, the class plan's
/// order array) with the full-set stride numB, so g1/v1/v2 layouts — and
/// checkpoints — are untouched by the sort.
/// Params: cellSorted, matSorted, origPos, beta, BI, D, DI, F,
///         next, prev, g1, v1, v2, cells, count, numB, M, l.
memory::KernelDef liftFdMmClassKernel(ir::ScalarKind real, int numBranches,
                                      int fixedNbr);

/// FD-MM mixed-fallback kernel: per-slot nbr gather, origPos state indexing.
/// Params: cellSorted, matSorted, origPos, nbrSorted, beta, BI, D, DI, F,
///         next, prev, g1, v1, v2, cells, count, numB, M, l.
memory::KernelDef liftFdMmClassMixedKernel(ir::ScalarKind real,
                                           int numBranches);

// ---- Static-analysis subjects --------------------------------------------

/// Every acoustic kernel above in f64 (FD-MM with 3 branches; class kernels
/// for the face and edge neighbor counts): the kernel subjects of lifta-lint
/// and the analysis tests, which append the geophysics kernels.
std::vector<memory::KernelDef> shippedKernels();

/// The voxelizer's guarantees (acoustics/geometry.cpp) as race-pass buffer
/// contracts: boundaryIndices lists distinct cell ids and material entries
/// select one of the M materials; the fission kernels' sorted slices keep
/// those facts (cellSorted, matSorted), origPos holds distinct positions in
/// the original boundary order and nbrSorted a neighbor count in 0..5.
analysis::AnalysisOptions acousticContracts();

}  // namespace lifta::lift_acoustics
