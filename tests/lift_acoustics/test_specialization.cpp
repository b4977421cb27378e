// Tiered kernel execution (DESIGN.md §12): constant-specialized kernels
// must be bit-identical to the generic ones across every model × precision
// × room shape, and a mid-run hot-swap must leave the trajectory exactly
// where never swapping would have — specialization only renames the
// environment, it never changes data arithmetic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lift_acoustics/device_simulation.hpp"
#include "ocl/compile_queue.hpp"

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

TEST(Specialization, SpecializedReportsFullTierState) {
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
// then unpause and let the swap finish.
TEST(Specialization, TieredStepsImmediatelyWhileBuildsArePaused) {
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
// bit-identical when specialized (per-launch count constants exercise the
// per-call spec).
TEST(Specialization, SpecializedRunTableAndFissionBitIdentical) {
  auto make = [&](KernelTier tier) {
    auto cfg = baseConfig(kModels[2], RoomShape::Dome);
    cfg.boundarySchedule = BoundarySchedule::Fission;
    cfg.kernelTier = tier;
    return cfg;
  };
  auto run = [&](KernelTier tier) {
    DeviceSimulation dev(sharedContext(), make(tier));
    dev.addImpulse(6, 6, 5, 1.0);
    return dev.record(30, 4, 4, 4);
  };
  const auto generic = run(KernelTier::Generic);
  const auto specialized = run(KernelTier::Specialized);
  for (std::size_t i = 0; i < generic.size(); ++i) {
    ASSERT_EQ(specialized[i], generic[i]) << "step " << i;
  }
}

}  // namespace
}  // namespace lifta::lift_acoustics
