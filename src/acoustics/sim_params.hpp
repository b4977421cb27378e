// FDTD scheme parameters (paper §II, Listing 1).
//
// The 7-point leapfrog scheme on a cubic grid is stable for Courant numbers
// lambda = c*Ts/h <= 1/sqrt(3); the listings' coefficient (2 - l2*nbr) with
// nbr = 6 in free air assumes exactly this family. The paper's kernels take
// l (= lambda) and l2 (= lambda^2) as precomputed constants.
#pragma once

#include <cmath>

namespace lifta::acoustics {

struct SimParams {
  double c = 344.0;           // speed of sound, m/s
  double sampleRate = 44100;  // Hz
  /// Courant number; defaults to the 3D stability limit 1/sqrt(3).
  double lambda = 1.0 / std::sqrt(3.0);

  // Reference-tier execution knobs. Every step runs as one dependency task
  // graph of per-z-slab volume and boundary tasks (acoustics/step_graph), so
  // the result is bit-identical for every `threads` and `tileZ` value: each
  // cell is written by exactly one task per step with unchanged per-cell
  // arithmetic, and every conflicting access pair is edge-ordered.
  /// 0 = share the process-wide pool (hardware concurrency); 1 = a private
  /// worker-less pool, which runs the graph serially on the calling thread;
  /// N > 1 = private pool of N threads.
  int threads = 0;
  /// Number of z-planes per slab: the step graph's task granularity (one
  /// volume task and at most one boundary task per slab per step). A
  /// one-thread pool ignores it and runs each phase as one whole-grid task.
  int tileZ = 4;
  /// Fused-fallback threshold for boundary launch planning: boundary
  /// classes smaller than this coalesce into a shared (possibly mixed-nbr)
  /// launch. 0 = one launch per non-empty class (pure fission). Matches
  /// geometry's kBoundaryFissionMinPoints default.
  int boundaryFissionMinPoints = 256;

  double Ts() const { return 1.0 / sampleRate; }
  /// Grid spacing implied by c, Ts and lambda.
  double h() const { return c * Ts() / lambda; }
  double l() const { return lambda; }
  double l2() const { return lambda * lambda; }

  /// 0 < lambda <= 1/sqrt(3): a non-positive Courant number has no grid
  /// spacing (h = c*Ts/lambda), and past the limit the scheme diverges.
  bool stable() const {
    return lambda > 0.0 && lambda <= 1.0 / std::sqrt(3.0) + 1e-12;
  }
};

/// The rejection message for a spec or config whose stable() is false.
inline constexpr const char* kCourantRangeMessage =
    "Courant number must be in (0, 1/sqrt(3)]";

}  // namespace lifta::acoustics
