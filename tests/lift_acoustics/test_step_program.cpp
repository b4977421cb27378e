// The Listing-5 step program (lift_acoustics/step_program) over the launch
// plans the device tier can run. HostProgram::compile rejects lint errors
// only, so warnings on a shipped program are caught here.
#include "lift_acoustics/step_program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/host_lint.hpp"

namespace lifta::lift_acoustics {
namespace {

using acoustics::BoundaryLaunch;
using acoustics::RoomShape;
using analysis::Severity;
using ir::ScalarKind;

TEST(StepProgram, EveryPlanLintsClean) {
  std::size_t fusedPlans = 0, classLaunches = 0, mixedLaunches = 0;
  for (const RoomShape shape :
       {RoomShape::Box, RoomShape::Dome, RoomShape::LShape}) {
    for (const int n : {16, 40}) {
      const auto grid =
          acoustics::voxelize({shape, n, n * 3 / 4, n / 2 + 2}, 3);
      // The empty plan (the fused kernel), then the planner's plan at each
      // threshold: 0 is pure fission, 1 << 30 one mixed launch.
      std::vector<std::vector<BoundaryLaunch>> plans = {{}};
      for (const int minPoints : {0, 64, 256, 1 << 30}) {
        plans.push_back(
            acoustics::planBoundaryLaunches(grid.boundaryClasses, minPoints));
      }
      for (std::size_t p = 0; p < plans.size(); ++p) {
        const auto& plan = plans[p];
        fusedPlans += plan.empty();
        for (const auto& L : plan) {
          ++(L.fixedNbr < 0 ? mixedLaunches : classLaunches);
        }
        for (const auto model : {DeviceModel::FiMm, DeviceModel::FdMm}) {
          for (const auto real : {ScalarKind::Float, ScalarKind::Double}) {
            const auto sp = buildStepProgram(model, real, 3, plan);
            const std::string name =
                std::string(acoustics::shapeName(shape)) + std::to_string(n) +
                (model == DeviceModel::FdMm ? "-fdmm" : "-fimm") +
                (real == ScalarKind::Double ? "-f64" : "-f32") + "-plan" +
                std::to_string(p);
            ASSERT_EQ(sp.kernels.size(),
                      1 + std::max<std::size_t>(1, plan.size()))
                << name;
            analysis::Report r = analysis::lintHostProgram(sp.prog, name);
            r.append(analysis::lintHostDataflow(sp.prog, name));
            EXPECT_EQ(r.count(Severity::Error), 0u) << r.toText();
            EXPECT_EQ(r.count(Severity::Warning), 0u) << r.toText();
          }
        }
      }
    }
  }
  // The grid reaches every boundary schedule the builder writes.
  EXPECT_GT(fusedPlans, 0u);
  EXPECT_GT(classLaunches, 0u);
  EXPECT_GT(mixedLaunches, 0u);
}

}  // namespace
}  // namespace lifta::lift_acoustics
