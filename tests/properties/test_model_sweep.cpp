// Parameterized sweep over room shapes, boundary models, material counts
// and branch counts: for every combination the LIFT-generated device
// pipeline must track the reference CPU simulation exactly over 40 steps.
// This is the property-style closure over the pointwise equivalence tests.
// A seeded slice below draws random configurations across both tiers'
// knobs and checks the same bitwise agreement.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../lift_acoustics/device_traces.hpp"
#include "acoustics/simulation.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "lift_acoustics/device_simulation.hpp"

namespace lifta::lift_acoustics {
namespace {

using namespace lifta::acoustics;

struct SweepCase {
  RoomShape shape;
  DeviceModel model;
  int numMaterials;
  int numBranches;
};

std::string caseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& p = info.param;
  std::string s = shapeName(p.shape);
  s += p.model == DeviceModel::FiMm ? "_FiMm" : "_FdMm";
  s += "_m" + std::to_string(p.numMaterials);
  s += "_b" + std::to_string(p.numBranches);
  return s;
}

class ModelSweep : public ::testing::TestWithParam<SweepCase> {};

ocl::Context& sharedContext() {
  static ocl::Context ctx;
  return ctx;
}

TEST_P(ModelSweep, LiftPipelineTracksReference) {
  const SweepCase& p = GetParam();
  const Room room{p.shape, 15, 13, 11};

  Simulation<double>::Config refCfg;
  refCfg.room = room;
  refCfg.model = p.model == DeviceModel::FiMm ? BoundaryModel::FiMm
                                              : BoundaryModel::FdMm;
  refCfg.numMaterials = p.numMaterials;
  refCfg.numBranches = p.numBranches;
  Simulation<double> ref(refCfg);
  ref.addImpulse(7, 6, 5, 1.0);
  ref.addImpulse(5, 5, 5, -0.5);
  const auto refRec = ref.record(40, 4, 4, 4);

  DeviceSimulation::Config devCfg;
  devCfg.room = room;
  devCfg.model = p.model;
  devCfg.numMaterials = p.numMaterials;
  devCfg.numBranches = p.numBranches;
  DeviceSimulation dev(sharedContext(), devCfg);
  dev.addImpulse(7, 6, 5, 1.0);
  dev.addImpulse(5, 5, 5, -0.5);
  const auto devRec = dev.record(40, 4, 4, 4);

  for (std::size_t i = 0; i < refRec.size(); ++i) {
    ASSERT_EQ(devRec[i], refRec[i]) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndModels, ModelSweep,
    ::testing::Values(
        SweepCase{RoomShape::Box, DeviceModel::FiMm, 1, 0},
        SweepCase{RoomShape::Box, DeviceModel::FiMm, 3, 0},
        SweepCase{RoomShape::Box, DeviceModel::FdMm, 2, 1},
        SweepCase{RoomShape::Box, DeviceModel::FdMm, 3, 3},
        SweepCase{RoomShape::Dome, DeviceModel::FiMm, 2, 0},
        SweepCase{RoomShape::Dome, DeviceModel::FdMm, 3, 2},
        SweepCase{RoomShape::LShape, DeviceModel::FiMm, 3, 0},
        SweepCase{RoomShape::LShape, DeviceModel::FdMm, 2, 3},
        SweepCase{RoomShape::Cylinder, DeviceModel::FiMm, 1, 0},
        SweepCase{RoomShape::Cylinder, DeviceModel::FdMm, 4, 2}),
    caseName);

// ---- seeded device-vs-reference slice -------------------------------------
//
// Case i draws its configuration from Rng(kSeed + i) (splitmix64-seeded
// xoshiro256**, so a case reproduces on every platform): shape; each
// dimension from {3, 4-6, 7-23}, so 3-wide, prime and flat grids occur;
// model, materials and FD-MM branches; precision; the device kernel tier,
// with a Tiered run's hot-swap forced at a fixed mid-run step; the
// reference tier's threads and tileZ; a source and two receivers among the
// inside cells; and, drawn last so the earlier draws keep their values,
// the boundary launch plan's boundaryFissionMinPoints from {0, 64, 256,
// 1 << 20} (pure fission, a coalesced plan, the default, and one mixed
// launch, which the device tier runs fused), which both tiers follow. The
// cases share one process, so the specialized kernels of a job class are
// built once and reused by every later room of the class, with the room's
// sizes and launch counts bound at run time. Both tiers run kSliceSteps
// steps and every sample must match bitwise. A 3x3x3 room, whose one
// inside cell has no inside neighbour, must be refused by both
// constructors instead.

// Among these 24 draws, case 4 is a 3x3x3 dome, so the refusal path runs.
constexpr std::uint64_t kSeed = 1;
constexpr int kSliceCases = 24;
constexpr int kSliceSteps = 30;
constexpr int kSliceSwapStep = 12;

struct SliceCase {
  int index = 0;
  Room room;
  DeviceModel model = DeviceModel::FiMm;
  int numMaterials = 1;
  int numBranches = 0;  // FD-MM only
  bool f32 = false;
  KernelTier tier = KernelTier::Generic;
  int threads = 1;
  int tileZ = 1;
  Receiver source;
  std::vector<Receiver> receivers;
  int fissionMinPoints = 0;
};

int drawDim(Rng& rng) {
  switch (rng.uniformInt(0, 2)) {
    case 0: return 3;
    case 1: return static_cast<int>(rng.uniformInt(4, 6));
    default: return static_cast<int>(rng.uniformInt(7, 23));
  }
}

SliceCase drawCase(int index) {
  Rng rng(kSeed + static_cast<std::uint64_t>(index));
  SliceCase c;
  c.index = index;
  const RoomShape shapes[] = {RoomShape::Box, RoomShape::Dome,
                              RoomShape::LShape, RoomShape::Cylinder};
  c.room.shape = shapes[rng.uniformInt(0, 3)];
  c.room.nx = drawDim(rng);
  c.room.ny = drawDim(rng);
  c.room.nz = drawDim(rng);
  c.model = rng.uniformInt(0, 1) == 0 ? DeviceModel::FiMm : DeviceModel::FdMm;
  c.numMaterials = static_cast<int>(rng.uniformInt(1, 4));
  c.numBranches = static_cast<int>(rng.uniformInt(1, 3));
  if (c.model == DeviceModel::FiMm) c.numBranches = 0;
  c.f32 = rng.uniformInt(0, 1) == 1;
  const KernelTier tiers[] = {KernelTier::Generic, KernelTier::Specialized,
                              KernelTier::Tiered};
  c.tier = tiers[rng.uniformInt(0, 2)];
  c.threads = static_cast<int>(rng.uniformInt(1, 4));
  c.tileZ = static_cast<int>(rng.uniformInt(1, 6));
  std::vector<Receiver> inside;
  for (int z = 1; z < c.room.nz - 1; ++z) {
    for (int y = 1; y < c.room.ny - 1; ++y) {
      for (int x = 1; x < c.room.nx - 1; ++x) {
        if (c.room.inside(x, y, z)) inside.push_back({x, y, z});
      }
    }
  }
  const auto pick = [&] {
    return inside[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(inside.size()) - 1))];
  };
  c.source = pick();
  c.receivers = {pick(), pick()};
  const int minPoints[] = {0, 64, 256, 1 << 20};
  c.fissionMinPoints = minPoints[rng.uniformInt(0, 3)];
  return c;
}

std::string describe(const SliceCase& c) {
  const char* tiers[] = {"Generic", "Specialized", "Tiered"};
  std::ostringstream os;
  os << "case " << c.index << " (Rng(kSeed + " << c.index
     << ")): " << shapeName(c.room.shape) << " " << c.room.nx << "x"
     << c.room.ny << "x" << c.room.nz
     << (c.model == DeviceModel::FdMm ? " FD-MM" : " FI-MM") << ", "
     << c.numMaterials << " materials, " << c.numBranches << " branches, "
     << (c.f32 ? "f32" : "f64") << ", "
     << tiers[static_cast<int>(c.tier)] << " kernels, reference threads "
     << c.threads << " tileZ " << c.tileZ << ", source (" << c.source.x
     << "," << c.source.y << "," << c.source.z << "), receivers";
  for (const auto& r : c.receivers) {
    os << " (" << r.x << "," << r.y << "," << r.z << ")";
  }
  os << ", boundaryFissionMinPoints " << c.fissionMinPoints;
  return os.str();
}

/// The device config of a case; its params.threads and tileZ reach only
/// the reference stepper (see referenceTraces).
DeviceSimulation::Config deviceConfig(const SliceCase& c) {
  DeviceSimulation::Config cfg;
  cfg.room = c.room;
  cfg.params.threads = c.threads;
  cfg.params.tileZ = c.tileZ;
  cfg.params.boundaryFissionMinPoints = c.fissionMinPoints;
  cfg.model = c.model;
  cfg.numMaterials = c.numMaterials;
  cfg.numBranches = c.numBranches;
  cfg.precision = c.f32 ? ir::ScalarKind::Float : ir::ScalarKind::Double;
  cfg.kernelTier = c.tier;
  return cfg;
}

TEST(DeviceSlice, SeededConfigsTrackReferenceBitwise) {
  for (int i = 0; i < kSliceCases; ++i) {
    const SliceCase c = drawCase(i);
    SCOPED_TRACE(describe(c));
    const DeviceSimulation::Config cfg = deviceConfig(c);
    const TraceRun run{c.source, c.receivers, kSliceSteps, kSliceSwapStep};
    if (c.room.nx == 3 && c.room.ny == 3 && c.room.nz == 3) {
      EXPECT_THROW(referenceTraces<double>(cfg, run), Error);
      EXPECT_THROW(deviceTraces(sharedContext(), cfg, run), Error);
      continue;
    }
    const auto ref = c.f32 ? referenceTraces<float>(cfg, run)
                           : referenceTraces<double>(cfg, run);
    const auto dev = deviceTraces(sharedContext(), cfg, run);
    for (std::size_t r = 0; r < c.receivers.size(); ++r) {
      for (int s = 0; s < kSliceSteps; ++s) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dev[r][s]),
                  std::bit_cast<std::uint64_t>(ref[r][s]))
            << "receiver " << r << ", step " << s << ": " << dev[r][s]
            << " vs " << ref[r][s];
      }
    }
  }
}

}  // namespace
}  // namespace lifta::lift_acoustics
