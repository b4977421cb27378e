// DeviceSimulation: the full LIFT pipeline as a library.
//
// Builds the Listing-5 host program (buildStepProgram, step_program.hpp)
// over LIFT-*generated* kernels (volume + FI-MM or FD-MM boundary), compiles
// it against the simulated OpenCL runtime, and steps it in time with
// device-side buffer rotation — the "executed iteratively" loop §V-A
// alludes to. This is what a downstream user who wants the paper's system
// (rather than the reference C++ tier) programs against;
// examples/concert_hall.cpp is a thin wrapper around it.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "acoustics/geometry.hpp"
#include "acoustics/materials.hpp"
#include "acoustics/sim_params.hpp"
#include "acoustics/simulation.hpp"
#include "host/host_program.hpp"
#include "lift_acoustics/kernel_tier.hpp"
#include "lift_acoustics/step_program.hpp"

namespace lifta::lift_acoustics {

class DeviceSimulation {
public:
  struct Config {
    acoustics::Room room;
    acoustics::SimParams params;
    DeviceModel model = DeviceModel::FiMm;
    int numMaterials = 1;
    int numBranches = 3;  // FD-MM only
    ir::ScalarKind precision = ir::ScalarKind::Double;
    /// Generic, specialized before the first step, or tiered execution
    /// with background specialization and hot-swap. Bit-identical across
    /// all three.
    KernelTier kernelTier = KernelTier::Generic;
    std::vector<acoustics::Material> materials;  // default palette if empty
  };

  /// Voxelizes, generates + JIT-builds the kernels, uploads the static data.
  /// Specialized and Tiered then queue the specialized builds
  /// (queueSpecializations); Specialized also waits for them
  /// (waitForSpecialization) before returning.
  /// The boundary schedule follows the launch plan
  /// planBoundaryLaunches(grid.boundaryClasses,
  /// params.boundaryFissionMinPoints): an empty plan, or one mixed launch,
  /// runs the fused Listing-7/8 kernel; any other plan runs one generated
  /// kernel per launch. Both schedules are bit-identical.
  DeviceSimulation(ocl::Context& ctx, Config config);
  ~DeviceSimulation();

  const acoustics::RoomGrid& grid() const { return *grid_; }
  const Config& config() const { return config_; }

  /// Adds an impulse to the current pressure field (host side; applied on
  /// the next upload, i.e. before the first step).
  void addImpulse(int x, int y, int z, double amplitude);

  /// Advances one time step (volume kernel + boundary kernel on the device,
  /// with buffer rotation). Returns the boundary kernel's share of the
  /// step's kernel time in [0,1].
  double step();

  /// Pressure at a grid point after the last step (reads one value back);
  /// before the first step, the initial field with its impulses, at the
  /// kernels' precision.
  double sample(int x, int y, int z);

  /// Steps `n` times recording the pressure at (x,y,z) after each step.
  std::vector<double> record(int n, int x, int y, int z);

  /// Cancellable multi-receiver recording, with Simulation<T>::record's
  /// contract: reads `cancel` (if non-null) before each step, stops at the
  /// first step it finds it set, and returns the completed step count;
  /// out[r] then holds exactly that many samples of receiver r.
  int record(int steps, const std::vector<acoustics::Receiver>& receivers,
             std::vector<std::vector<double>>& out,
             const std::atomic<bool>* cancel);

  int stepsTaken() const { return steps_; }
  double totalVolumeMs() const { return volumeMs_; }
  double totalBoundaryMs() const { return boundaryMs_; }

  /// Kernel launches per step: the volume, then the fused boundary kernel
  /// or one kernel per launch of the plan.
  std::size_t totalKernels() const;
  /// Launches currently running constant-specialized code: the hot-swapped
  /// count under Tiered and Specialized, 0 under Generic. Specialized swaps
  /// before its constructor returns, so it reports totalKernels() unless a
  /// build failed (that kernel stays generic).
  std::size_t specializedKernels() const;
  /// True while Tiered background builds are still outstanding (never
  /// under Specialized, whose constructor waits for them).
  bool specializationPending() const;
  /// Step count at the first hot-swap (-1 before any swap; 0 under
  /// Specialized, whose swaps land before the first step).
  int firstSwapStep() const;
  /// Blocks until every queued specialization is terminal and applies the
  /// resulting swaps (callable between steps; failed builds stay generic).
  void waitForSpecialization();

private:
  struct Impl;
  /// Builds, compiles and binds the step program over `mats`, with the
  /// boundary schedule the launch plan picks.
  std::unique_ptr<Impl> buildProgram(
      ocl::Context& ctx, const std::vector<acoustics::Material>& mats);
  /// Specialized and Tiered: generates the specialized variant of every
  /// kernel on the calling thread (so the translation-validation gate runs
  /// synchronously) and submits the sources to the background
  /// CompileQueue; a source its class already built comes back Ready, and
  /// the next poll swaps it in.
  void queueSpecializations();
  /// Applies every finished background build by hot-swapping its program
  /// (called at step boundaries and from waitForSpecialization()).
  void pollSpecializations();

  Config config_;
  ocl::Context* ctx_ = nullptr;
  /// Shared immutable grid from the voxelization cache (keyed on shape,
  /// dims and material count), so repeated configs skip re-voxelization.
  std::shared_ptr<const acoustics::RoomGrid> grid_;
  std::unique_ptr<Impl> impl_;
  int steps_ = 0;
  double volumeMs_ = 0.0;
  double boundaryMs_ = 0.0;
};

}  // namespace lifta::lift_acoustics
