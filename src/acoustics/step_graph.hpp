// Task-graph plan for the pipelined reference stepper.
//
// A batch of K time steps is decomposed into per-z-slab volume tasks,
// per-slab boundary tasks and per-step receiver-sampling tasks, and the
// ordering edges between them are *derived* from declared buffer accesses by
// analysis::AccessDagBuilder (the constructive dual of the host-program DAG
// lint) — never hand-written. Because the volume stencil reads `curr` only
// at z +/- 1 and the boundary kernels touch only their own cells, the derived
// graph lets step t+1's interior slabs start while step t's boundary tasks
// are still finishing, instead of two global barriers per step.
//
// Buffer rotation is folded into the plan: pressure buffers are addressed as
// three physical arrays whose prev/curr/next roles rotate with period 3 over
// the batch (and the FD-MM v1/v2 pair with period 2), so no pointer swap —
// and hence no barrier — is needed between steps. Everything here is
// element-type independent; Simulation<T> attaches the typed kernel bodies.
//
// Bit-identity with the listings' whole-grid kernels holds by construction:
// every cell is written by exactly one task per step with the identical
// per-cell arithmetic, tasks only commute when they touch disjoint cells,
// and every read-after-write, write-after-read and write-after-write pair is
// ordered by a derived edge (lintTaskAccesses verifies this in tests). A
// worker-less pool runs the same graph serially in creation order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acoustics/simulation.hpp"
#include "analysis/task_deps.hpp"

namespace lifta::acoustics {

struct StepTaskSpec {
  enum class Phase {
    Volume,    // interior runs + residual boundary cells of one slab
               // (fused-FI boundary handling included)
    Boundary,  // per-class boundary kernels over one slab's boundary points
    Sample,    // record every receiver for one completed step
  };

  Phase phase = Phase::Volume;
  int step = 0;   // batch-relative time step, 0-based
  int slab = -1;  // -1 for Sample
  std::size_t run0 = 0, run1 = 0;  // interior-run subrange (Volume)
  std::int64_t b0 = 0, b1 = 0;     // boundary-point subrange
};

/// The plan for one batch: task list (creation order == TaskGraph ids ==
/// the serial execution order), derived edges, and the retained access
/// declarations so tests can replay them through lintTaskAccesses.
struct StepGraphSpec {
  int steps = 0;
  int slabs = 0;
  std::vector<StepTaskSpec> tasks;
  std::vector<analysis::AccessDagBuilder::Edge> edges;
  std::vector<analysis::TaskAccessRecord> accesses;
  std::vector<std::string> bufferNames;

  /// Per-slab class-slot table for the boundary tasks: entry
  /// [s * kNumBoundaryClasses + c] is the first slot of class c whose cell
  /// lies at or above slab s's first plane, and row `slabs` holds the class
  /// ends, so slab s's class-c slots are rows s..s+1. Boundary tasks stay
  /// one-per-slab — splitting them per class would gain nothing because the
  /// classes of one slab interleave in cell space, so their conservative
  /// interval hulls overlap and the derived edges would serialize the split
  /// tasks anyway — but the task *body* dispatches per-class branch-free
  /// kernels over these ranges.
  std::vector<std::int32_t> slabClassSlot;

  /// Physical pressure-buffer index holding `role` (0 prev, 1 curr, 2 next)
  /// at batch-relative step k, counting from the batch-start assignment
  /// phys0=prev, phys1=curr, phys2=next.
  static int pressurePhys(int role, int k) { return (role + k) % 3; }
  /// Physical velocity index (0 = the array that is v1 at batch start)
  /// holding the *written* FD-MM velocity at step k; the read one is the
  /// other array.
  static int velocityWritePhys(int k) { return k % 2; }

  static StepGraphSpec build(const RoomGrid& grid, BoundaryModel model,
                             int tileZ, int numBranches, int steps,
                             const std::vector<std::size_t>& receiverIdx);
};

}  // namespace lifta::acoustics
