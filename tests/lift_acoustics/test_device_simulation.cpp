// Multi-step equivalence: the DeviceSimulation (LIFT-generated kernels,
// generated host scheduling, device-side buffer rotation) must track the
// reference CPU Simulation step for step over long runs — the strongest
// end-to-end statement of the reproduction.
#include "lift_acoustics/device_simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "acoustics/simulation.hpp"
#include "common/error.hpp"
#include "ocl/compile_queue.hpp"

namespace lifta::lift_acoustics {
namespace {

using namespace lifta::acoustics;

ocl::Context& sharedContext() {
  static ocl::Context ctx;
  return ctx;
}

TEST(DeviceSimulation, FiMmTracksReferenceBitwiseOver100Steps) {
  Room room{RoomShape::Dome, 16, 14, 12};

  Simulation<double>::Config refCfg;
  refCfg.room = room;
  refCfg.model = BoundaryModel::FiMm;
  refCfg.numMaterials = 2;
  Simulation<double> ref(refCfg);
  ref.addImpulse(8, 7, 6, 1.0);
  const auto refRec = ref.record(100, 5, 5, 5);

  DeviceSimulation::Config devCfg;
  devCfg.room = room;
  devCfg.model = DeviceModel::FiMm;
  devCfg.numMaterials = 2;
  DeviceSimulation dev(sharedContext(), devCfg);
  dev.addImpulse(8, 7, 6, 1.0);
  const auto devRec = dev.record(100, 5, 5, 5);

  ASSERT_EQ(refRec.size(), devRec.size());
  for (std::size_t i = 0; i < refRec.size(); ++i) {
    ASSERT_EQ(devRec[i], refRec[i]) << "step " << i;
  }
}

TEST(DeviceSimulation, FdMmTracksReferenceBitwiseOver100Steps) {
  Room room{RoomShape::Dome, 14, 13, 11};

  Simulation<double>::Config refCfg;
  refCfg.room = room;
  refCfg.model = BoundaryModel::FdMm;
  refCfg.numMaterials = 3;
  refCfg.numBranches = 3;
  Simulation<double> ref(refCfg);
  ref.addImpulse(7, 6, 5, 1.0);
  const auto refRec = ref.record(100, 4, 4, 4);

  DeviceSimulation::Config devCfg;
  devCfg.room = room;
  devCfg.model = DeviceModel::FdMm;
  devCfg.numMaterials = 3;
  devCfg.numBranches = 3;
  DeviceSimulation dev(sharedContext(), devCfg);
  dev.addImpulse(7, 6, 5, 1.0);
  const auto devRec = dev.record(100, 4, 4, 4);

  for (std::size_t i = 0; i < refRec.size(); ++i) {
    ASSERT_EQ(devRec[i], refRec[i]) << "step " << i;
  }
}

TEST(DeviceSimulation, AutotunedLocalSizesLeaveResultsBitIdentical) {
  Room room{RoomShape::Dome, 14, 12, 10};

  DeviceSimulation::Config cfg;
  cfg.room = room;
  cfg.model = DeviceModel::FiMm;
  cfg.numMaterials = 2;
  DeviceSimulation plain(sharedContext(), cfg);
  plain.addImpulse(7, 6, 5, 1.0);
  const auto plainRec = plain.record(40, 4, 4, 4);

  cfg.autoTuneLocalSize = true;
  DeviceSimulation tuned(sharedContext(), cfg);
  // The tuner must have settled on one of the candidate sizes, and the
  // throwaway tuning launches must not leak into the simulation state.
  const auto picked = tuned.boundaryLocalSize();
  EXPECT_TRUE(picked == 16 || picked == 32 || picked == 64 ||
              picked == 128 || picked == 256)
      << "picked " << picked;
  tuned.addImpulse(7, 6, 5, 1.0);
  const auto tunedRec = tuned.record(40, 4, 4, 4);

  ASSERT_EQ(plainRec.size(), tunedRec.size());
  for (std::size_t i = 0; i < plainRec.size(); ++i) {
    ASSERT_EQ(tunedRec[i], plainRec[i]) << "step " << i;
  }
}

TEST(DeviceSimulation, SinglePrecisionTracksFloatReference) {
  Room room{RoomShape::Box, 14, 12, 10};

  Simulation<float>::Config refCfg;
  refCfg.room = room;
  refCfg.model = BoundaryModel::FiMm;
  refCfg.numMaterials = 1;
  Simulation<float> ref(refCfg);
  ref.addImpulse(7, 6, 5, 1.0f);
  const auto refRec = ref.record(60, 4, 4, 4);

  DeviceSimulation::Config devCfg;
  devCfg.room = room;
  devCfg.model = DeviceModel::FiMm;
  devCfg.numMaterials = 1;
  devCfg.precision = ir::ScalarKind::Float;
  DeviceSimulation dev(sharedContext(), devCfg);
  dev.addImpulse(7, 6, 5, 1.0);
  const auto devRec = dev.record(60, 4, 4, 4);

  for (std::size_t i = 0; i < refRec.size(); ++i) {
    ASSERT_EQ(static_cast<float>(devRec[i]), refRec[i]) << "step " << i;
  }
}

TEST(DeviceSimulation, ReportsKernelTimeSplit) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 12, 12, 12};
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 2;
  cfg.numBranches = 2;
  DeviceSimulation dev(sharedContext(), cfg);
  dev.addImpulse(6, 6, 6, 1.0);
  const double frac = dev.step();
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  EXPECT_GT(dev.totalVolumeMs() + dev.totalBoundaryMs(), 0.0);
  EXPECT_EQ(dev.stepsTaken(), 1);
}

TEST(DeviceSimulation, ImpulseAfterFirstStepRejected) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 10, 10, 10};
  DeviceSimulation dev(sharedContext(), cfg);
  dev.step();
  EXPECT_THROW(dev.addImpulse(5, 5, 5, 1.0), Error);
}

TEST(DeviceSimulation, EnergyDecaysOnDevice) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Dome, 16, 14, 12};
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 3;
  cfg.numBranches = 3;
  DeviceSimulation dev(sharedContext(), cfg);
  dev.addImpulse(8, 7, 6, 1.0);
  const auto rec = dev.record(600, 8, 7, 6);
  double early = 0.0, late = 0.0;
  for (int i = 50; i < 150; ++i) early += rec[static_cast<std::size_t>(i)] *
                                          rec[static_cast<std::size_t>(i)];
  for (int i = 500; i < 600; ++i) late += rec[static_cast<std::size_t>(i)] *
                                          rec[static_cast<std::size_t>(i)];
  EXPECT_LT(late, early);
  for (double v : rec) ASSERT_TRUE(std::isfinite(v));
}

TEST(DeviceSimulation, Stencil3DVolumeVariantMatchesFlatVariant) {
  // Both formulations of the volume kernel (flat ArrayAccess vs Listing-6
  // slide3/pad3) must drive identical simulations.
  Room room{RoomShape::Dome, 14, 12, 10};
  DeviceSimulation::Config a;
  a.room = room;
  a.model = DeviceModel::FiMm;
  a.numMaterials = 2;
  DeviceSimulation::Config b = a;
  b.useStencil3DVolume = true;

  DeviceSimulation flat(sharedContext(), a);
  DeviceSimulation stencil(sharedContext(), b);
  flat.addImpulse(7, 6, 5, 1.0);
  stencil.addImpulse(7, 6, 5, 1.0);
  const auto ra = flat.record(60, 4, 4, 4);
  const auto rb = stencil.record(60, 4, 4, 4);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i], rb[i]) << "step " << i;
  }
}

TEST(DeviceSimulation, RunTableVolumeVariantMatchesFlatVariant) {
  // The run-table volume kernel iterates the precomputed segment table (one
  // work item per aligned window, branchless interior windows) instead of
  // one work item per cell; both must drive bit-identical simulations.
  for (auto shape : {RoomShape::Box, RoomShape::Dome}) {
    Room room{shape, 14, 12, 10};
    DeviceSimulation::Config a;
    a.room = room;
    a.model = DeviceModel::FiMm;
    a.numMaterials = 2;
    DeviceSimulation::Config b = a;
    b.useRunTableVolume = true;

    DeviceSimulation flat(sharedContext(), a);
    DeviceSimulation runs(sharedContext(), b);
    flat.addImpulse(7, 6, 5, 1.0);
    runs.addImpulse(7, 6, 5, 1.0);
    const auto ra = flat.record(60, 4, 4, 4);
    const auto rb = runs.record(60, 4, 4, 4);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i], rb[i]) << shapeName(shape) << " step " << i;
    }
  }
}

TEST(DeviceSimulation, RunTableFdMmTracksReferenceBitwise) {
  Room room{RoomShape::Dome, 14, 13, 11};

  Simulation<double>::Config refCfg;
  refCfg.room = room;
  refCfg.model = BoundaryModel::FdMm;
  refCfg.numMaterials = 3;
  refCfg.numBranches = 3;
  Simulation<double> ref(refCfg);
  ref.addImpulse(7, 6, 5, 1.0);
  const auto refRec = ref.record(80, 4, 4, 4);

  DeviceSimulation::Config devCfg;
  devCfg.room = room;
  devCfg.model = DeviceModel::FdMm;
  devCfg.numMaterials = 3;
  devCfg.numBranches = 3;
  devCfg.useRunTableVolume = true;
  DeviceSimulation dev(sharedContext(), devCfg);
  dev.addImpulse(7, 6, 5, 1.0);
  const auto devRec = dev.record(80, 4, 4, 4);

  for (std::size_t i = 0; i < refRec.size(); ++i) {
    ASSERT_EQ(devRec[i], refRec[i]) << "step " << i;
  }
}

TEST(DeviceSimulation, RunTableSinglePrecisionMatchesFlat) {
  Room room{RoomShape::Cylinder, 13, 12, 10};
  DeviceSimulation::Config a;
  a.room = room;
  a.model = DeviceModel::FiMm;
  a.numMaterials = 1;
  a.precision = ir::ScalarKind::Float;
  DeviceSimulation::Config b = a;
  b.useRunTableVolume = true;

  DeviceSimulation flat(sharedContext(), a);
  DeviceSimulation runs(sharedContext(), b);
  flat.addImpulse(6, 6, 5, 1.0);
  runs.addImpulse(6, 6, 5, 1.0);
  const auto ra = flat.record(50, 4, 4, 4);
  const auto rb = runs.record(50, 4, 4, 4);
  EXPECT_EQ(ra, rb);
}

TEST(DeviceSimulation, RunTableAndStencilVariantsMutuallyExclusive) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 10, 10, 10};
  cfg.useStencil3DVolume = true;
  cfg.useRunTableVolume = true;
  EXPECT_THROW(DeviceSimulation(sharedContext(), cfg), Error);
}

TEST(DeviceSimulation, FissionScheduleTracksReferenceBitwise) {
  // Forced per-class boundary fission (minPoints = 0: one generated kernel
  // per non-empty topology class) must still track the reference CPU
  // stepper bit-for-bit, for both material models.
  Room room{RoomShape::Dome, 14, 13, 11};
  for (const bool fd : {false, true}) {
    Simulation<double>::Config refCfg;
    refCfg.room = room;
    refCfg.model = fd ? BoundaryModel::FdMm : BoundaryModel::FiMm;
    refCfg.numMaterials = 3;
    refCfg.numBranches = fd ? 3 : 0;
    Simulation<double> ref(refCfg);
    ref.addImpulse(7, 6, 5, 1.0);
    const auto refRec = ref.record(60, 4, 4, 4);

    DeviceSimulation::Config devCfg;
    devCfg.room = room;
    devCfg.model = fd ? DeviceModel::FdMm : DeviceModel::FiMm;
    devCfg.numMaterials = 3;
    devCfg.numBranches = fd ? 3 : 0;
    devCfg.boundarySchedule = BoundarySchedule::Fission;
    devCfg.params.boundaryFissionMinPoints = 0;
    DeviceSimulation dev(sharedContext(), devCfg);
    EXPECT_TRUE(dev.boundaryFissionActive());
    EXPECT_GT(dev.boundaryLaunchCount(), 1u);
    dev.addImpulse(7, 6, 5, 1.0);
    const auto devRec = dev.record(60, 4, 4, 4);

    ASSERT_EQ(refRec.size(), devRec.size());
    for (std::size_t i = 0; i < refRec.size(); ++i) {
      ASSERT_EQ(devRec[i], refRec[i]) << (fd ? "FD-MM" : "FI-MM")
                                      << " step " << i;
    }
  }
}

TEST(DeviceSimulation, FusedAndFissionSchedulesBitIdentical) {
  Room room{RoomShape::Box, 14, 12, 10};
  DeviceSimulation::Config cfg;
  cfg.room = room;
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 2;
  cfg.numBranches = 2;
  cfg.boundarySchedule = BoundarySchedule::Fused;
  DeviceSimulation fused(sharedContext(), cfg);
  EXPECT_FALSE(fused.boundaryFissionActive());
  EXPECT_EQ(fused.boundaryLaunchCount(), 1u);
  fused.addImpulse(7, 6, 5, 1.0);
  const auto fusedRec = fused.record(40, 4, 4, 4);

  cfg.boundarySchedule = BoundarySchedule::Fission;
  cfg.params.boundaryFissionMinPoints = 0;
  DeviceSimulation fission(sharedContext(), cfg);
  EXPECT_TRUE(fission.boundaryFissionActive());
  fission.addImpulse(7, 6, 5, 1.0);
  const auto fissionRec = fission.record(40, 4, 4, 4);

  EXPECT_EQ(fusedRec, fissionRec);
}

TEST(DeviceSimulation, FissionLaunchPlanCoversWholeBoundarySet) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Dome, 14, 13, 11};
  cfg.model = DeviceModel::FiMm;
  cfg.numMaterials = 2;
  cfg.boundarySchedule = BoundarySchedule::Fission;
  cfg.params.boundaryFissionMinPoints = 0;
  DeviceSimulation dev(sharedContext(), cfg);
  const auto& launches = dev.boundaryLaunches();
  ASSERT_EQ(launches.size(), dev.boundaryLaunchCount());
  const auto& cp = dev.grid().boundaryClasses;
  std::int32_t expectBegin = 0;
  for (const auto& l : launches) {
    EXPECT_EQ(l.begin, expectBegin);
    expectBegin = l.end;
    // Pure fission: every launch is one class, so a face/edge launch is
    // branch-free (fixedNbr >= 4) and only the corner launch may mix.
    EXPECT_EQ(l.classFirst, l.classLast);
    if (l.classFirst < kBoundaryClassCorner) EXPECT_GE(l.fixedNbr, 4);
  }
  EXPECT_EQ(expectBegin,
            static_cast<std::int32_t>(dev.grid().boundaryPoints()));
  EXPECT_EQ(static_cast<std::size_t>(cp.classBegin.back()),
            dev.grid().boundaryPoints());
}

TEST(DeviceSimulation, AutotunedFissionStaysBitIdentical) {
  // Per-launch local-size tuning (and the Auto schedule's measured
  // fused-vs-fission pick) must not perturb simulation state.
  Room room{RoomShape::Dome, 14, 12, 10};
  DeviceSimulation::Config cfg;
  cfg.room = room;
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 2;
  cfg.numBranches = 2;
  cfg.boundarySchedule = BoundarySchedule::Fission;
  cfg.params.boundaryFissionMinPoints = 0;
  DeviceSimulation plain(sharedContext(), cfg);
  plain.addImpulse(7, 6, 5, 1.0);
  const auto plainRec = plain.record(40, 4, 4, 4);

  cfg.autoTuneLocalSize = true;
  DeviceSimulation tuned(sharedContext(), cfg);
  for (std::size_t k = 0; k < tuned.boundaryLaunchCount(); ++k) {
    EXPECT_GE(tuned.boundaryLocalSize(k), 1u) << "launch " << k;
  }
  tuned.addImpulse(7, 6, 5, 1.0);
  const auto tunedRec = tuned.record(40, 4, 4, 4);
  EXPECT_EQ(plainRec, tunedRec);

  cfg.boundarySchedule = BoundarySchedule::Auto;
  DeviceSimulation picked(sharedContext(), cfg);
  picked.addImpulse(7, 6, 5, 1.0);
  const auto pickedRec = picked.record(40, 4, 4, 4);
  EXPECT_EQ(plainRec, pickedRec);
}

TEST(DeviceSimulation, AutotuneSkipsLaunchesWhoseCandidatesLaunchAlike) {
  // Every boundary launch of this box has at most ~1,300 points, under 64
  // chunks of 64, so the launch rule gives every candidate the same shrunk
  // work-group on any pool: those launches keep their default. The
  // 40,800-cell volume launch has distinct candidates on pools of up to
  // 10 threads, so it is tuned, and the result must not move.
  Room room{RoomShape::Box, 40, 34, 30};
  DeviceSimulation::Config cfg;
  cfg.room = room;
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 2;
  cfg.numBranches = 2;
  cfg.boundarySchedule = BoundarySchedule::Fission;
  DeviceSimulation plain(sharedContext(), cfg);
  plain.addImpulse(20, 17, 15, 1.0);
  const auto plainRec = plain.record(20, 6, 6, 6);

  cfg.autoTuneLocalSize = true;
  DeviceSimulation tuned(sharedContext(), cfg);
  ASSERT_EQ(tuned.boundaryLaunchCount(), plain.boundaryLaunchCount());
  for (std::size_t k = 0; k < tuned.boundaryLaunchCount(); ++k) {
    EXPECT_EQ(tuned.boundaryLocalSize(k), plain.boundaryLocalSize(k))
        << "launch " << k;
  }
  tuned.addImpulse(20, 17, 15, 1.0);
  EXPECT_EQ(tuned.record(20, 6, 6, 6), plainRec);
}

// --- per-receiver readback -----------------------------------------------
//
// sample() reads one element of the last boundary launch's device buffer.
// Receivers on every kind of cell pin that down: an interior cell alone
// cannot tell the final field from the volume kernel's output, because no
// boundary launch touches it.

std::uint64_t bitsOf(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The first cell in index order with `nbr` inside 6-neighbors.
Receiver cellWithNbrs(const Room& room, const RoomGrid& g, int nbr) {
  for (int z = 0; z < g.nz; ++z) {
    for (int y = 0; y < g.ny; ++y) {
      for (int x = 0; x < g.nx; ++x) {
        if (g.nbrs[room.index(x, y, z)] == nbr) return {x, y, z};
      }
    }
  }
  ADD_FAILURE() << "no cell with " << nbr << " inside neighbours";
  return {};
}

/// Interior, face, edge and corner cells of a box room. The corner cell is
/// the one in the room's corner, next to three walls.
std::vector<Receiver> readbackReceivers(const Room& room) {
  const auto grid = voxelize(room, 1);
  return {cellWithNbrs(room, grid, 6), cellWithNbrs(room, grid, 5),
          cellWithNbrs(room, grid, 4), cellWithNbrs(room, grid, 3)};
}

constexpr int kReadbackSteps = 40;
constexpr int kSwapStep = 10;

/// Reference traces [receiver][step], widened to double.
template <typename T>
std::vector<std::vector<double>> referenceTraces(
    const DeviceSimulation::Config& dev,
    const std::vector<Receiver>& receivers) {
  typename Simulation<T>::Config cfg;
  cfg.room = dev.room;
  cfg.params = dev.params;
  cfg.model = dev.model == DeviceModel::FdMm ? BoundaryModel::FdMm
                                             : BoundaryModel::FiMm;
  cfg.numMaterials = dev.numMaterials;
  cfg.numBranches = dev.model == DeviceModel::FdMm ? dev.numBranches : 0;
  Simulation<T> ref(cfg);
  ref.addImpulse(7, 6, 5, T(1));
  const auto rec = ref.record(kReadbackSteps, receivers);
  std::vector<std::vector<double>> out;
  for (const auto& r : rec) out.emplace_back(r.begin(), r.end());
  return out;
}

/// Device traces [receiver][step], every receiver sampled after every step.
/// A Tiered run's background builds are held until step kSwapStep, so the
/// hot-swap lands mid-trace at a known step.
std::vector<std::vector<double>> deviceTraces(
    const DeviceSimulation::Config& cfg,
    const std::vector<Receiver>& receivers) {
  const bool tiered = cfg.kernelTier == KernelTier::Tiered;
  auto& queue = ocl::CompileQueue::instance();
  if (tiered) queue.setPaused(true);
  DeviceSimulation dev(sharedContext(), cfg);
  dev.addImpulse(7, 6, 5, 1.0);
  for (const auto& r : receivers) {
    EXPECT_EQ(dev.sample(r.x, r.y, r.z), 0.0) << "before the first step";
  }
  std::vector<std::vector<double>> out(receivers.size());
  for (int s = 0; s < kReadbackSteps; ++s) {
    if (tiered && s == kSwapStep) {
      EXPECT_EQ(dev.specializedKernels(), 0u);
      queue.setPaused(false);
      dev.waitForSpecialization();
      EXPECT_EQ(dev.specializedKernels(), dev.totalKernels());
    }
    dev.step();
    for (std::size_t r = 0; r < receivers.size(); ++r) {
      out[r].push_back(
          dev.sample(receivers[r].x, receivers[r].y, receivers[r].z));
    }
  }
  if (tiered) {
    EXPECT_EQ(dev.firstSwapStep(), kSwapStep);
  }
  return out;
}

DeviceSimulation::Config readbackConfig(DeviceModel model,
                                        ir::ScalarKind precision,
                                        BoundarySchedule schedule,
                                        KernelTier tier) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 14, 12, 10};
  cfg.model = model;
  cfg.numMaterials = 1;
  cfg.numBranches = 2;
  cfg.precision = precision;
  cfg.boundarySchedule = schedule;
  cfg.params.boundaryFissionMinPoints = 0;
  cfg.kernelTier = tier;
  return cfg;
}

void expectReadbackMatchesReference(const DeviceSimulation::Config& cfg) {
  const std::string label =
      std::string(cfg.model == DeviceModel::FdMm ? "FD-MM" : "FI-MM") +
      (cfg.precision == ir::ScalarKind::Double ? " f64" : " f32") +
      (cfg.boundarySchedule == BoundarySchedule::Fused ? " fused"
                                                       : " fission") +
      (cfg.kernelTier == KernelTier::Tiered ? " tiered" : "");
  const auto receivers = readbackReceivers(cfg.room);
  const auto ref = cfg.precision == ir::ScalarKind::Double
                       ? referenceTraces<double>(cfg, receivers)
                       : referenceTraces<float>(cfg, receivers);
  const auto dev = deviceTraces(cfg, receivers);
  const char* kinds[] = {"interior", "face", "edge", "corner"};
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    for (int s = 0; s < kReadbackSteps; ++s) {
      ASSERT_EQ(bitsOf(dev[r][s]), bitsOf(ref[r][s]))
          << label << ", " << kinds[r] << " cell, step " << s << ": "
          << dev[r][s] << " vs " << ref[r][s];
    }
  }
}

TEST(DeviceSimulation, SampleReadsEveryCellKindBitwiseBothSchedules) {
  for (const auto model : {DeviceModel::FiMm, DeviceModel::FdMm}) {
    for (const auto precision :
         {ir::ScalarKind::Float, ir::ScalarKind::Double}) {
      for (const auto schedule :
           {BoundarySchedule::Fused, BoundarySchedule::Fission}) {
        expectReadbackMatchesReference(
            readbackConfig(model, precision, schedule, KernelTier::Generic));
      }
    }
  }
}

TEST(DeviceSimulation, SampleReadsEveryCellKindBitwiseAcrossHotSwap) {
  for (const auto precision :
       {ir::ScalarKind::Float, ir::ScalarKind::Double}) {
    expectReadbackMatchesReference(
        readbackConfig(DeviceModel::FdMm, precision,
                       BoundarySchedule::Fission, KernelTier::Tiered));
  }
}

}  // namespace
}  // namespace lifta::lift_acoustics
