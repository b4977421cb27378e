// Test-local trace pair for the LIFT device tier: one impulse stepped by
// DeviceSimulation and by the reference Simulation<T> built from the same
// config, every receiver sampled after every step. A Tiered device run
// holds its background builds until a chosen step, so the hot-swap lands
// mid-trace at a known step; kernels whose job class an earlier run of the
// process already built come back from the Jit cache and swap in at the
// first step instead. The device-simulation tests and the seeded
// model-sweep slice compare the two traces bitwise.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "acoustics/simulation.hpp"
#include "lift_acoustics/device_simulation.hpp"
#include "ocl/compile_queue.hpp"

namespace lifta::lift_acoustics {

/// params.boundaryFissionMinPoints values that pick each boundary
/// schedule: 0 plans one launch per topology class (fission), and a
/// threshold above any boundary set plans one mixed launch, which the
/// device tier runs as the fused kernel.
inline constexpr int kFissionMinPoints = 0;
inline constexpr int kFusedMinPoints = 1 << 30;

/// One traced run: an impulse of amplitude 1 at `source`, then `steps`
/// steps with every receiver sampled after each.
struct TraceRun {
  acoustics::Receiver source;
  std::vector<acoustics::Receiver> receivers;
  int steps = 0;
  /// Tiered device runs: the step before which the held background builds
  /// are released and applied.
  int swapStep = 0;
};

/// Reference traces [receiver][step] for the device config's room, params,
/// model and materials, widened to double (exact for float). The device
/// tier ignores params.threads and params.tileZ, so they pick the
/// reference stepper's schedule alone.
template <typename T>
std::vector<std::vector<double>> referenceTraces(
    const DeviceSimulation::Config& dev, const TraceRun& run) {
  const bool fdmm = dev.model == DeviceModel::FdMm;
  typename acoustics::Simulation<T>::Config cfg;
  cfg.room = dev.room;
  cfg.params = dev.params;
  cfg.model =
      fdmm ? acoustics::BoundaryModel::FdMm : acoustics::BoundaryModel::FiMm;
  cfg.numMaterials = dev.numMaterials;
  cfg.numBranches = fdmm ? dev.numBranches : 0;
  cfg.materials = dev.materials;
  acoustics::Simulation<T> ref(cfg);
  ref.addImpulse(run.source.x, run.source.y, run.source.z, T(1));
  std::vector<std::vector<double>> out;
  for (const auto& r : ref.record(run.steps, run.receivers)) {
    out.emplace_back(r.begin(), r.end());
  }
  return out;
}

/// Holds the background compile queue from construction until release()
/// or destruction, so a failed assertion never leaves it paused.
class HeldCompiles {
public:
  explicit HeldCompiles(bool hold) : held_(hold) {
    if (held_) ocl::CompileQueue::instance().setPaused(true);
  }
  ~HeldCompiles() { release(); }
  HeldCompiles(const HeldCompiles&) = delete;
  HeldCompiles& operator=(const HeldCompiles&) = delete;

  void release() {
    if (held_) ocl::CompileQueue::instance().setPaused(false);
    held_ = false;
  }

private:
  bool held_;
};

/// Device traces [receiver][step]. A Tiered run starts on generic kernels,
/// except those whose class is already built, which it runs specialized
/// from the first step; it must have swapped every other kernel exactly at
/// run.swapStep (> 0).
inline std::vector<std::vector<double>> deviceTraces(
    ocl::Context& ctx, const DeviceSimulation::Config& cfg,
    const TraceRun& run) {
  const bool tiered = cfg.kernelTier == KernelTier::Tiered;
  HeldCompiles held(tiered);
  DeviceSimulation dev(ctx, cfg);
  dev.addImpulse(run.source.x, run.source.y, run.source.z, 1.0);
  // Before the first step sample() reads the initial field: the impulse at
  // the source (1.0 is exact in f32 too), zero elsewhere.
  for (const auto& r : run.receivers) {
    const bool atSource = r.x == run.source.x && r.y == run.source.y &&
                          r.z == run.source.z;
    EXPECT_EQ(dev.sample(r.x, r.y, r.z), atSource ? 1.0 : 0.0)
        << "before the first step";
  }
  std::size_t cached = 0;  // kernels swapped in at the first step
  std::vector<std::vector<double>> out(run.receivers.size());
  for (int s = 0; s < run.steps; ++s) {
    if (tiered && s == run.swapStep) {
      EXPECT_EQ(dev.specializedKernels(), cached) << "a held build swapped";
      held.release();
      dev.waitForSpecialization();
      EXPECT_EQ(dev.specializedKernels(), dev.totalKernels());
    }
    dev.step();
    if (s == 0) cached = dev.specializedKernels();
    for (std::size_t r = 0; r < run.receivers.size(); ++r) {
      const auto& rx = run.receivers[r];
      out[r].push_back(dev.sample(rx.x, rx.y, rx.z));
    }
  }
  if (tiered) {
    EXPECT_EQ(dev.firstSwapStep(), cached > 0 ? 0 : run.swapStep);
  }
  return out;
}

}  // namespace lifta::lift_acoustics
