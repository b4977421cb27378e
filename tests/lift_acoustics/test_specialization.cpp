// Tiered kernel execution (DESIGN.md §12): constant-specialized kernels
// must be bit-identical to the generic ones across every model × precision
// × room shape, and a mid-run hot-swap must leave the trajectory exactly
// where never swapping would have — specialization only renames the
// environment, it never changes data arithmetic. Specialized kernels are
// keyed by the job class, so a second room of a class reuses every build.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device_traces.hpp"
#include "lift_acoustics/device_simulation.hpp"
#include "ocl/compile_queue.hpp"
#include "ocl/jit.hpp"

namespace lifta::lift_acoustics {
namespace {

using namespace lifta::acoustics;

ocl::Context& sharedContext() {
  static ocl::Context ctx;
  return ctx;
}

struct ModelCase {
  DeviceModel model;
  ir::ScalarKind precision;
  const char* name;
};

const ModelCase kModels[] = {
    {DeviceModel::FiMm, ir::ScalarKind::Double, "fi-mm/double"},
    {DeviceModel::FiMm, ir::ScalarKind::Float, "fi-mm/float"},
    {DeviceModel::FdMm, ir::ScalarKind::Double, "fd-mm/double"},
    {DeviceModel::FdMm, ir::ScalarKind::Float, "fd-mm/float"},
};

const RoomShape kShapes[] = {RoomShape::Box, RoomShape::LShape,
                             RoomShape::Dome};

DeviceSimulation::Config baseConfig(const ModelCase& m, RoomShape shape) {
  DeviceSimulation::Config cfg;
  cfg.room = Room{shape, 13, 12, 11};
  cfg.model = m.model;
  cfg.precision = m.precision;
  cfg.numMaterials = 2;
  cfg.numBranches = 2;
  return cfg;
}

std::vector<double> runTier(const ModelCase& m, RoomShape shape,
                            KernelTier tier, int steps) {
  auto cfg = baseConfig(m, shape);
  cfg.kernelTier = tier;
  DeviceSimulation dev(sharedContext(), cfg);
  dev.addImpulse(6, 6, 5, 1.0);
  return dev.record(steps, 4, 4, 4);
}

TEST(Specialization, SpecializedBitIdenticalToGenericAllModelsAllShapes) {
  for (const auto& m : kModels) {
    for (const auto shape : kShapes) {
      const auto generic = runTier(m, shape, KernelTier::Generic, 40);
      const auto specialized = runTier(m, shape, KernelTier::Specialized, 40);
      ASSERT_EQ(generic.size(), specialized.size());
      for (std::size_t i = 0; i < generic.size(); ++i) {
        ASSERT_EQ(specialized[i], generic[i])
            << m.name << " " << shapeName(shape) << " step " << i;
      }
    }
  }
}

// The constructor waits for the specialized builds. An earlier test of the
// process may have built this job class, so the Jit memory cache is emptied
// first: the wait then covers a cold build.
TEST(Specialization, SpecializedReportsFullTierState) {
  ocl::Jit::instance().clearMemoryCache();
  auto cfg = baseConfig(kModels[0], RoomShape::Box);
  cfg.kernelTier = KernelTier::Specialized;
  DeviceSimulation dev(sharedContext(), cfg);
  EXPECT_EQ(dev.specializedKernels(), dev.totalKernels());
  EXPECT_GE(dev.totalKernels(), 2u);
  EXPECT_FALSE(dev.specializationPending());
  EXPECT_EQ(dev.firstSwapStep(), 0);
}

// The swap-at-step-k trajectory must equal the never-swapped trajectory:
// run tiered, force the swap to complete after a few warm-up steps, and
// compare every sample against the generic run.
TEST(Specialization, MidRunHotSwapIsDeterministic) {
  for (const auto& m : kModels) {
    const auto generic = runTier(m, RoomShape::LShape, KernelTier::Generic, 60);

    auto cfg = baseConfig(m, RoomShape::LShape);
    cfg.kernelTier = KernelTier::Tiered;
    DeviceSimulation dev(sharedContext(), cfg);
    dev.addImpulse(6, 6, 5, 1.0);
    std::vector<double> tiered;
    for (int i = 0; i < 60; ++i) {
      if (i == 10) {
        // Force the swap boundary mid-run (normally it lands wherever the
        // background build finishes; pinning it makes the test exact).
        dev.waitForSpecialization();
        ASSERT_EQ(dev.specializedKernels(), dev.totalKernels()) << m.name;
      }
      dev.step();
      tiered.push_back(dev.sample(4, 4, 4));
    }
    ASSERT_FALSE(dev.specializationPending());
    EXPECT_GE(dev.firstSwapStep(), 0) << m.name;
    ASSERT_EQ(generic.size(), tiered.size());
    for (std::size_t i = 0; i < generic.size(); ++i) {
      ASSERT_EQ(tiered[i], generic[i]) << m.name << " step " << i;
    }
  }
}

// Tier-0 must be able to step before any background build lands: pause the
// compile queue so the specialized kernels cannot possibly be ready, step,
// then unpause and let the swap finish. An earlier test of the process may
// have built this job class, so the Jit memory cache is emptied first.
TEST(Specialization, TieredStepsImmediatelyWhileBuildsArePaused) {
  ocl::Jit::instance().clearMemoryCache();
  auto& queue = ocl::CompileQueue::instance();
  queue.setPaused(true);
  auto cfg = baseConfig(kModels[0], RoomShape::Dome);
  cfg.kernelTier = KernelTier::Tiered;
  DeviceSimulation dev(sharedContext(), cfg);
  dev.addImpulse(6, 6, 5, 1.0);
  dev.step();
  EXPECT_EQ(dev.specializedKernels(), 0u);
  EXPECT_TRUE(dev.specializationPending());
  queue.setPaused(false);
  dev.waitForSpecialization();
  EXPECT_EQ(dev.specializedKernels(), dev.totalKernels());
  EXPECT_FALSE(dev.specializationPending());
  dev.step();
}

// Specialization composes with the fission boundary schedule: it stays
// bit-identical when specialized (the per-launch count<k> scalars stay
// run-time arguments of the specialized class kernels).
TEST(Specialization, SpecializedAndFissionBitIdentical) {
  auto run = [&](KernelTier tier) {
    auto cfg = baseConfig(kModels[2], RoomShape::Dome);
    cfg.params.boundaryFissionMinPoints = kFissionMinPoints;
    cfg.kernelTier = tier;
    DeviceSimulation dev(sharedContext(), cfg);
    EXPECT_GT(dev.totalKernels(), 2u);
    dev.addImpulse(6, 6, 5, 1.0);
    return dev.record(30, 4, 4, 4);
  };
  const auto generic = run(KernelTier::Generic);
  const auto specialized = run(KernelTier::Specialized);
  for (std::size_t i = 0; i < generic.size(); ++i) {
    ASSERT_EQ(specialized[i], generic[i]) << "step " << i;
  }
}

// Specialized kernels depend on the job class only: once the first room's
// builds finish, a second room of the class compiles nothing, runs every
// kernel specialized from its first step, and tracks the reference tier
// bitwise — its sizes and launch counts are bound at run time.
TEST(Specialization, SecondRoomOfAClassReusesEveryBuild) {
  struct ClassCase {
    DeviceModel model;
    ir::ScalarKind precision;
  };
  for (const auto& c : {ClassCase{DeviceModel::FdMm, ir::ScalarKind::Double},
                        ClassCase{DeviceModel::FiMm, ir::ScalarKind::Float}}) {
    const auto config = [&](int nx, int ny, int nz) {
      DeviceSimulation::Config cfg;
      cfg.room = Room{RoomShape::Box, nx, ny, nz};
      cfg.model = c.model;
      cfg.precision = c.precision;
      cfg.numMaterials = 3;
      cfg.numBranches = 3;
      cfg.params.boundaryFissionMinPoints = kFissionMinPoints;
      cfg.kernelTier = KernelTier::Tiered;
      return cfg;
    };
    {
      DeviceSimulation first(sharedContext(), config(40, 34, 30));
      first.waitForSpecialization();
      ASSERT_EQ(first.specializedKernels(), first.totalKernels());
      ASSERT_GT(first.totalKernels(), 2u);
    }

    const auto cfg = config(44, 30, 28);
    const TraceRun run{{22, 15, 14}, {{5, 6, 7}, {38, 24, 20}}, 16, 0};
    const auto compiled = ocl::Jit::instance().stats().compiled;
    DeviceSimulation second(sharedContext(), cfg);
    second.addImpulse(run.source.x, run.source.y, run.source.z, 1.0);
    std::vector<std::vector<double>> dev(run.receivers.size());
    for (int s = 0; s < run.steps; ++s) {
      second.step();
      EXPECT_EQ(second.specializedKernels(), second.totalKernels())
          << "step " << s;
      for (std::size_t r = 0; r < run.receivers.size(); ++r) {
        const auto& rx = run.receivers[r];
        dev[r].push_back(second.sample(rx.x, rx.y, rx.z));
      }
    }
    EXPECT_EQ(second.firstSwapStep(), 0);
    EXPECT_FALSE(second.specializationPending());
    EXPECT_EQ(ocl::Jit::instance().stats().compiled, compiled);

    const auto ref = c.precision == ir::ScalarKind::Float
                         ? referenceTraces<float>(cfg, run)
                         : referenceTraces<double>(cfg, run);
    for (std::size_t r = 0; r < run.receivers.size(); ++r) {
      for (int s = 0; s < run.steps; ++s) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dev[r][s]),
                  std::bit_cast<std::uint64_t>(ref[r][s]))
            << "receiver " << r << ", step " << s;
      }
    }
  }
}

// Two live simulations of one config share their build tickets: tearing
// down the first must not cancel the builds the second still waits on.
TEST(Specialization, DestroyingOneSimulationKeepsBuildsAnotherWaitsOn) {
  ocl::Jit::instance().clearMemoryCache();  // the builds must really queue
  DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Box, 23, 19, 17};
  cfg.model = DeviceModel::FdMm;
  cfg.numMaterials = 2;
  cfg.numBranches = 2;
  cfg.kernelTier = KernelTier::Tiered;
  HeldCompiles held(true);
  auto first = std::make_unique<DeviceSimulation>(sharedContext(), cfg);
  DeviceSimulation second(sharedContext(), cfg);
  EXPECT_TRUE(second.specializationPending());
  first.reset();
  held.release();
  second.waitForSpecialization();
  EXPECT_EQ(second.specializedKernels(), second.totalKernels());
}

}  // namespace
}  // namespace lifta::lift_acoustics
