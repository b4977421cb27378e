// The device tier's kernel tiering choice (DESIGN.md §12), in a header of
// its own so the RIR job service can name it without pulling in the whole
// DeviceSimulation interface.
#pragma once

namespace lifta::lift_acoustics {

/// Which compiled form of the generated kernels a simulation runs. All
/// three produce bit-identical output: specialization only bakes the
/// scalars the host would have bound into index algebra and literal
/// coefficients, never changing data arithmetic.
enum class KernelTier {
  /// Generic kernels only (runtime scalar arguments) — the baseline.
  Generic,
  /// Constant-specialized kernels from the first step: the constructor
  /// builds the generic program, queues the specialized builds as Tiered
  /// does and waits for them. Lowest steady-state step time, highest
  /// construction latency; a kernel whose build fails stays generic.
  Specialized,
  /// Tier-0 generic kernels run immediately; a background thread compiles
  /// the specialized variants and step() hot-swaps each kernel at a step
  /// boundary once its build is ready.
  Tiered,
};

}  // namespace lifta::lift_acoustics
