// DeviceSimulation: the full LIFT pipeline as a library.
//
// Builds the Listing-5 host program over LIFT-*generated* kernels (volume +
// FI-MM or FD-MM boundary), compiles it against the simulated OpenCL
// runtime, and steps it in time with device-side buffer rotation — the
// "executed iteratively" driver §V-A alludes to. This is what a downstream
// user who wants the paper's system (rather than the reference C++ tier)
// programs against; examples/concert_hall.cpp is a thin wrapper around it.
#pragma once

#include <memory>
#include <vector>

#include "acoustics/geometry.hpp"
#include "acoustics/materials.hpp"
#include "acoustics/sim_params.hpp"
#include "host/host_program.hpp"
#include "lift_acoustics/kernel_tier.hpp"

namespace lifta::lift_acoustics {

enum class DeviceModel { FiMm, FdMm };

/// How the device tier schedules the boundary phase.
enum class BoundarySchedule {
  /// Pick automatically: fission when the launch plan has any specialized
  /// (uniform-nbr) launch; when autoTuneLocalSize is also set, build both
  /// variants, tune each, and keep the faster one by measurement.
  Auto,
  /// The fused Listing-7/8 kernel over the original boundary order.
  Fused,
  /// Topology-class fission: one generated kernel per boundary launch
  /// (faces / edge / corner coalesced per planBoundaryLaunches), each with
  /// its own NDRange and baked neighbor count where uniform.
  Fission,
};

class DeviceSimulation {
public:
  struct Config {
    acoustics::Room room;
    acoustics::SimParams params;
    DeviceModel model = DeviceModel::FiMm;
    int numMaterials = 1;
    int numBranches = 3;  // FD-MM only
    ir::ScalarKind precision = ir::ScalarKind::Double;
    /// Use the Listing-6 slide3/pad3 formulation of the volume kernel
    /// instead of the flat-index one. Both generate identical arithmetic
    /// (see tests/lift_acoustics/test_stencil3d.cpp).
    bool useStencil3DVolume = false;
    /// Use the run-table-driven volume kernel: the interior-run plan is
    /// lowered to a fixed-width segment table, uploaded once as a device
    /// buffer, and one work item updates one segment (branch-free for
    /// pure-interior segments). Output is bit-identical to the flat
    /// kernel. Mutually exclusive with useStencil3DVolume.
    bool useRunTableVolume = false;
    /// Time each kernel at the work-group sizes that launch differently
    /// (harness::autotuneWorkGroup) during construction and keep the
    /// fastest, instead of the hard-coded spec default. Tuning runs execute over the zero-filled
    /// initial state and the first real step() re-uploads everything, so
    /// simulation output is unaffected.
    bool autoTuneLocalSize = false;
    /// Boundary-phase schedule (fused single kernel vs per-class fission).
    /// Both schedules are bit-identical; they differ only in launch shape.
    BoundarySchedule boundarySchedule = BoundarySchedule::Auto;
    /// Generic, up-front specialized, or tiered execution with background
    /// specialization and hot-swap. Bit-identical across all three.
    KernelTier kernelTier = KernelTier::Generic;
    std::vector<acoustics::Material> materials;  // default palette if empty
  };

  /// Voxelizes, generates + JIT-builds the kernels, uploads the static data.
  DeviceSimulation(ocl::Context& ctx, Config config);
  ~DeviceSimulation();

  /// Queues this config's constant-specialized kernel builds on the
  /// background compile queue and returns without waiting. The builds
  /// outlive the call and park their objects in the process-wide JIT
  /// cache, so a later simulation with the same config either hot-swaps
  /// immediately (Tiered) or constructs without a cold compile
  /// (Specialized). Batch schedulers call this for every job up front —
  /// the compile thread then works ahead of the serialized device jobs.
  /// Returns the number of specialized builds queued.
  static std::size_t prewarmSpecializations(ocl::Context& ctx, Config config);

  const acoustics::RoomGrid& grid() const { return *grid_; }
  const Config& config() const { return config_; }

  /// Adds an impulse to the current pressure field (host side; applied on
  /// the next upload, i.e. before the first step).
  void addImpulse(int x, int y, int z, double amplitude);

  /// Advances one time step (volume kernel + boundary kernel on the device,
  /// with buffer rotation). Returns the boundary kernel's share of the
  /// step's kernel time in [0,1].
  double step();

  /// Pressure at a grid point after the last step (reads one value back).
  double sample(int x, int y, int z);

  /// Steps `n` times recording the pressure at (x,y,z) after each step.
  std::vector<double> record(int n, int x, int y, int z);

  int stepsTaken() const { return steps_; }
  double totalVolumeMs() const { return volumeMs_; }
  double totalBoundaryMs() const { return boundaryMs_; }

  /// Work-group sizes requested (spec defaults, or the autotuned picks). A
  /// small chunk-scheduled launch runs smaller work-groups so it reaches
  /// every pool thread (CompiledHostProgram::launchRange).
  std::size_t volumeLocalSize() const;
  std::size_t boundaryLocalSize() const;
  /// Work-group size of one boundary launch (fission: per-launch tuning).
  std::size_t boundaryLocalSize(std::size_t launch) const;

  /// Kernel launches per step (volume + boundary launches).
  std::size_t totalKernels() const;
  /// Launches currently running constant-specialized code: totalKernels()
  /// under Specialized, the hot-swapped count under Tiered, 0 otherwise.
  std::size_t specializedKernels() const;
  /// True while Tiered background builds are still outstanding.
  bool specializationPending() const;
  /// Step count at the first hot-swap (-1 before any swap; 0 under
  /// Specialized, where every kernel starts specialized).
  int firstSwapStep() const;
  /// Blocks until every queued specialization is terminal and applies the
  /// resulting swaps (callable between steps; failed builds stay generic).
  void waitForSpecialization();

  /// True when the resolved schedule runs per-class boundary kernels.
  bool boundaryFissionActive() const;
  /// Number of boundary kernel launches per step (1 when fused).
  std::size_t boundaryLaunchCount() const;
  /// The launch plan behind the fission schedule (empty when fused).
  const std::vector<acoustics::BoundaryLaunch>& boundaryLaunches() const;

private:
  struct Impl;
  void autotuneLocalSizes();
  /// Builds + compiles the Listing-5 host program; a non-empty launch plan
  /// selects the fission boundary schedule, empty selects the fused kernel.
  std::unique_ptr<Impl> buildProgram(
      ocl::Context& ctx, const std::vector<acoustics::Material>& mats,
      const acoustics::FdCoeffs& fd,
      std::vector<acoustics::BoundaryLaunch> launches);
  /// Best-of-3 sum of the boundary kernels' time on the current program
  /// (tuning-time measurement for the Auto schedule pick).
  double measureBoundaryMs();
  /// Tiered mode: generates the specialized variant of every kernel on the
  /// calling thread (so the translation-validation gate runs synchronously)
  /// and submits the sources to the background CompileQueue.
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
