// The Listing-5 step program (§IV-A, §V-A): one time step of the acoustic
// simulation written once, in the host primitives — the uploads, the volume
// kernel, the in-place WriteTo boundary kernels and the readback. The device
// tier (DeviceSimulation) compiles and steps it; lifta-lint, the examples
// and the host tests build it here too, so they check what ships.
#pragma once

#include <vector>

#include "acoustics/geometry.hpp"
#include "host/host_program.hpp"

namespace lifta::lift_acoustics {

enum class DeviceModel { FiMm, FdMm };

/// A built step program and the nodes a stepper rotates, samples and
/// hot-swaps.
struct StepProgram {
  host::HostProgram prog;
  /// The t-1 and t-2 pressure uploads (prev1_h, prev2_h).
  host::HostPtr prev1, prev2;
  /// FD-MM's branch-velocity double buffer (v1_h, v2_h); null for FI-MM.
  host::HostPtr v1, v2;
  /// Every kernel launch in RunStats order. kernels[0] is the volume call,
  /// whose fresh output is the step's `next` field; each later entry is a
  /// boundary launch, a WriteTo updating `next` in place, so the last one
  /// holds the step's result (the program's `next_h` output).
  std::vector<host::HostPtr> kernels;
};

/// Builds the step program for `model` at `precision` (`numBranches` ODE
/// branches, FD-MM only). An empty `launches` plan gives the fused
/// Listing-7/8 boundary kernel over the voxelizer's boundary order; any
/// other plan gives one class kernel (or mixed kernel, fixedNbr < 0) per
/// launch, chained through WriteTo.
///
/// Host buffers to bind: prev1_h, prev2_h, nbrs_h, beta_h; fused:
/// boundaries_h, material_h; FD-MM: bi_h, d_h, di_h, f_h, g1_h, v1_h, v2_h;
/// launch k: cellsorted<k>_h, matsorted<k>_h, nbrsorted<k>_h (mixed only),
/// origpos<k>_h (FD-MM only). Scalars: nx, nxny, cells, numB, M, count<k>
/// (int) and l, l2 (real).
StepProgram buildStepProgram(
    DeviceModel model, ir::ScalarKind precision, int numBranches,
    const std::vector<acoustics::BoundaryLaunch>& launches);

}  // namespace lifta::lift_acoustics
