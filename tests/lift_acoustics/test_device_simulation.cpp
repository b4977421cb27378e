// Multi-step equivalence: the DeviceSimulation (LIFT-generated kernels,
// generated host scheduling, device-side buffer rotation) must track the
// reference CPU Simulation step for step over long runs — the strongest
// end-to-end statement of the reproduction.
#include "lift_acoustics/device_simulation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "acoustics/simulation.hpp"
#include "common/error.hpp"
#include "device_traces.hpp"

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

template <typename T>
void expectSampleBeforeFirstStepMatchesReference(ir::ScalarKind precision) {
  const Room room{RoomShape::Box, 12, 10, 9};
  typename Simulation<T>::Config refCfg;
  refCfg.room = room;
  refCfg.model = BoundaryModel::FiMm;
  Simulation<T> ref(refCfg);
  DeviceSimulation::Config devCfg;
  devCfg.room = room;
  devCfg.model = DeviceModel::FiMm;
  devCfg.precision = precision;
  DeviceSimulation dev(sharedContext(), devCfg);
  // 0.1 is not a float, so the f32 run also checks the rounding.
  ref.addImpulse(5, 5, 4, static_cast<T>(0.1));
  dev.addImpulse(5, 5, 4, 0.1);
  EXPECT_EQ(dev.sample(5, 5, 4), static_cast<double>(ref.sample(5, 5, 4)));
  EXPECT_EQ(dev.sample(2, 3, 4), static_cast<double>(ref.sample(2, 3, 4)));
  EXPECT_EQ(dev.stepsTaken(), 0);
}

TEST(DeviceSimulation, SampleBeforeTheFirstStepMatchesReference) {
  expectSampleBeforeFirstStepMatchesReference<float>(ir::ScalarKind::Float);
  expectSampleBeforeFirstStepMatchesReference<double>(ir::ScalarKind::Double);
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

// The checks Simulation's constructor makes: without them a material list
// shorter than numMaterials ran, and the boundary kernel read beta past
// its end.
TEST(DeviceSimulation, RejectsConfigsTheReferenceTierRejects) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 10, 10, 10};
  cfg.numMaterials = 3;
  cfg.materials = {Material{0.1, {}}};
  EXPECT_THROW(DeviceSimulation(sharedContext(), cfg), Error);

  cfg.materials.clear();
  cfg.numMaterials = 0;
  EXPECT_THROW(DeviceSimulation(sharedContext(), cfg), Error);

  cfg.numMaterials = 1;
  cfg.model = DeviceModel::FdMm;
  for (const int branches : {0, kMaxBranches + 1}) {
    cfg.numBranches = branches;
    EXPECT_THROW(DeviceSimulation(sharedContext(), cfg), Error) << branches;
  }

  cfg.model = DeviceModel::FiMm;
  cfg.params.boundaryFissionMinPoints = -1;
  EXPECT_THROW(DeviceSimulation(sharedContext(), cfg), Error);
}

TEST(DeviceSimulation, RejectsNonPositiveCourantNumber) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 10, 10, 10};
  for (const double lambda : {0.0, -0.3}) {
    cfg.params.lambda = lambda;
    EXPECT_THROW(DeviceSimulation(sharedContext(), cfg), Error) << lambda;
  }
}

// The cancellable multi-receiver record samples every receiver after each
// step, bit-identically to one single-receiver record per receiver, and
// reads the cancel flag before the first step.
TEST(DeviceSimulation, MultiReceiverRecordMatchesSingleReceiverRecords) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Dome, 16, 14, 12};
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 2;
  const std::vector<Receiver> receivers = {{5, 5, 5}, {10, 8, 6}, {8, 7, 6}};
  const std::atomic<bool> notCancelled{false};
  DeviceSimulation multi(sharedContext(), cfg);
  multi.addImpulse(8, 7, 6, 1.0);
  std::vector<std::vector<double>> out;
  ASSERT_EQ(multi.record(40, receivers, out, &notCancelled), 40);
  ASSERT_EQ(out.size(), receivers.size());
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    DeviceSimulation single(sharedContext(), cfg);
    single.addImpulse(8, 7, 6, 1.0);
    const auto rec =
        single.record(40, receivers[r].x, receivers[r].y, receivers[r].z);
    ASSERT_EQ(out[r].size(), rec.size());
    for (std::size_t s = 0; s < rec.size(); ++s) {
      ASSERT_EQ(out[r][s], rec[s]) << "receiver " << r << " step " << s;
    }
  }

  const std::atomic<bool> cancelled{true};
  DeviceSimulation stopped(sharedContext(), cfg);
  EXPECT_EQ(stopped.record(40, receivers, out, &cancelled), 0);
  EXPECT_EQ(stopped.stepsTaken(), 0);
  ASSERT_EQ(out.size(), receivers.size());
  for (const auto& trace : out) EXPECT_TRUE(trace.empty());
}

TEST(DeviceSimulation, FissionScheduleTracksReferenceBitwise) {
  // Pure per-class boundary fission (minPoints = 0: one generated kernel
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
    devCfg.params.boundaryFissionMinPoints = kFissionMinPoints;
    DeviceSimulation dev(sharedContext(), devCfg);
    EXPECT_GT(dev.totalKernels(), 2u);
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
  cfg.params.boundaryFissionMinPoints = kFusedMinPoints;
  DeviceSimulation fused(sharedContext(), cfg);
  EXPECT_EQ(fused.totalKernels(), 2u);
  fused.addImpulse(7, 6, 5, 1.0);
  const auto fusedRec = fused.record(40, 4, 4, 4);

  cfg.params.boundaryFissionMinPoints = kFissionMinPoints;
  DeviceSimulation fission(sharedContext(), cfg);
  EXPECT_GT(fission.totalKernels(), 2u);
  fission.addImpulse(7, 6, 5, 1.0);
  const auto fissionRec = fission.record(40, 4, 4, 4);

  EXPECT_EQ(fusedRec, fissionRec);
}

// The device tier takes its boundary schedule from the launch plan alone:
// the fused kernel for an empty plan or one mixed launch, otherwise one
// kernel per launch, each after the one volume launch.
TEST(DeviceSimulation, LaunchesFollowTheBoundaryPlan) {
  int fusedCases = 0, fissionCases = 0;
  for (const auto shape :
       {RoomShape::Box, RoomShape::Dome, RoomShape::LShape}) {
    for (const auto model : {DeviceModel::FiMm, DeviceModel::FdMm}) {
      for (const int minPoints : {0, 64, 256, kFusedMinPoints}) {
        DeviceSimulation::Config cfg;
        cfg.room = Room{shape, 20, 18, 16};
        cfg.model = model;
        cfg.numMaterials = 2;
        cfg.numBranches = 2;
        cfg.params.boundaryFissionMinPoints = minPoints;
        DeviceSimulation dev(sharedContext(), cfg);
        const auto plan = planBoundaryLaunches(dev.grid().boundaryClasses,
                                               minPoints);
        const bool fused =
            plan.empty() || (plan.size() == 1 && plan.front().fixedNbr < 0);
        (fused ? fusedCases : fissionCases) += 1;
        EXPECT_EQ(dev.totalKernels(), 1 + (fused ? 1 : plan.size()))
            << shapeName(shape)
            << (model == DeviceModel::FdMm ? " FD-MM" : " FI-MM")
            << ", minPoints " << minPoints;
      }
    }
  }
  EXPECT_GT(fusedCases, 0);
  EXPECT_GT(fissionCases, 0);
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

DeviceSimulation::Config readbackConfig(DeviceModel model,
                                        ir::ScalarKind precision,
                                        int fissionMinPoints, KernelTier tier) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 14, 12, 10};
  cfg.model = model;
  cfg.numMaterials = 1;
  cfg.numBranches = 2;
  cfg.precision = precision;
  cfg.params.boundaryFissionMinPoints = fissionMinPoints;
  cfg.kernelTier = tier;
  return cfg;
}

void expectReadbackMatchesReference(const DeviceSimulation::Config& cfg) {
  const std::string label =
      std::string(cfg.model == DeviceModel::FdMm ? "FD-MM" : "FI-MM") +
      (cfg.precision == ir::ScalarKind::Double ? " f64" : " f32") +
      (cfg.params.boundaryFissionMinPoints == kFusedMinPoints ? " fused"
                                                               : " fission") +
      (cfg.kernelTier == KernelTier::Tiered ? " tiered" : "");
  const TraceRun run{{7, 6, 5}, readbackReceivers(cfg.room), kReadbackSteps,
                     kSwapStep};
  const auto ref = cfg.precision == ir::ScalarKind::Double
                       ? referenceTraces<double>(cfg, run)
                       : referenceTraces<float>(cfg, run);
  const auto dev = deviceTraces(sharedContext(), cfg, run);
  const char* kinds[] = {"interior", "face", "edge", "corner"};
  for (std::size_t r = 0; r < run.receivers.size(); ++r) {
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
      for (const int minPoints : {kFusedMinPoints, kFissionMinPoints}) {
        expectReadbackMatchesReference(
            readbackConfig(model, precision, minPoints, KernelTier::Generic));
      }
    }
  }
}

TEST(DeviceSimulation, SampleReadsEveryCellKindBitwiseAcrossHotSwap) {
  for (const auto model : {DeviceModel::FiMm, DeviceModel::FdMm}) {
    for (const auto precision :
         {ir::ScalarKind::Float, ir::ScalarKind::Double}) {
      expectReadbackMatchesReference(readbackConfig(
          model, precision, kFissionMinPoints, KernelTier::Tiered));
    }
  }
}

}  // namespace
}  // namespace lifta::lift_acoustics
