// The host-side primitives of §IV-A driving the two-kernel acoustic step of
// Listing 5 end to end: ToGPU → volume kernel → WriteTo(boundary kernel) →
// ToHost, validated against the reference simulation.
#include "host/host_program.hpp"

#include <gtest/gtest.h>

#include "acoustics/geometry.hpp"
#include "acoustics/materials.hpp"
#include "acoustics/reference_kernels.hpp"
#include "acoustics/sim_params.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "lift_acoustics/kernels.hpp"
#include "lift_acoustics/step_program.hpp"

namespace lifta::host {
namespace {

using namespace lifta::acoustics;

/// The device tier's fused FI-MM step program (lift_acoustics/step_program):
/// the uploads, val next_g = OclKernel(volume, prev2_g, prev1_g, ...), then
/// ToHost(WriteTo(next_g, OclKernel(boundary, ...))).
lift_acoustics::StepProgram listing5() {
  return lift_acoustics::buildStepProgram(lift_acoustics::DeviceModel::FiMm,
                                          ir::ScalarKind::Double, 0, {});
}

/// Binds every Listing 5 input and scalar (not the output): prev1_h is
/// t-1 (curr), prev2_h is t-2 (prev).
void bindListing5Inputs(CompiledHostProgram& c, const RoomGrid& grid,
                        const std::vector<double>& curr,
                        const std::vector<double>& prev,
                        const std::vector<double>& beta,
                        const SimParams& params) {
  const std::size_t cells = grid.cells();
  c.bindBuffer("prev1_h", curr.data(), cells * sizeof(double));
  c.bindBuffer("prev2_h", prev.data(), cells * sizeof(double));
  c.bindBuffer("nbrs_h", grid.nbrs.data(),
               grid.nbrs.size() * sizeof(std::int32_t));
  c.bindBuffer("boundaries_h", grid.boundaryIndices.data(),
               grid.boundaryIndices.size() * sizeof(std::int32_t));
  c.bindBuffer("material_h", grid.material.data(),
               grid.material.size() * sizeof(std::int32_t));
  c.bindBuffer("beta_h", beta.data(), beta.size() * sizeof(double));
  c.setInt("nx", grid.nx);
  c.setInt("nxny", grid.nx * grid.ny);
  c.setInt("cells", static_cast<int>(cells));
  c.setInt("numB", static_cast<int>(grid.boundaryPoints()));
  c.setInt("M", static_cast<int>(beta.size()));
  c.setReal("l", params.l());
  c.setReal("l2", params.l2());
}

TEST(HostProgram, Listing5TwoKernelStepMatchesReference) {
  Room room{RoomShape::Dome, 16, 14, 12};
  const RoomGrid grid = voxelize(room, 2);
  SimParams params;
  const auto mats = defaultMaterials(2, 0);
  std::vector<double> beta{mats[0].beta, mats[1].beta};

  Rng rng(7);
  const std::size_t cells = grid.cells();
  std::vector<double> curr(cells, 0.0), prev(cells, 0.0), next(cells, 0.0);
  for (std::size_t i = 0; i < cells; ++i) {
    if (grid.nbrs[i] > 0) {
      curr[i] = rng.uniform(-0.1, 0.1);
      prev[i] = rng.uniform(-0.1, 0.1);
    }
  }

  // Reference: volume + FI-MM boundary (prev is used by both kernels).
  std::vector<double> refNext(cells, 0.0);
  refVolume(grid.nbrs.data(), prev.data(), curr.data(), refNext.data(),
            grid.nx, grid.ny, grid.nz, params.l2());
  refFiMmBoundary(grid.boundaryIndices.data(), grid.nbrs.data(),
                  grid.material.data(), beta.data(), prev.data(),
                  refNext.data(), static_cast<std::int64_t>(grid.boundaryPoints()),
                  params.l());

  // LIFT host program: prev1_h binds t-1 (curr), prev2_h binds t-2 (prev).
  auto l5 = listing5();
  ocl::Context ctx;
  auto compiled = l5.prog.compile(ctx, ir::ScalarKind::Double);
  bindListing5Inputs(*compiled, grid, curr, prev, beta, params);
  compiled->bindOutput("next_h", next.data(), cells * sizeof(double));

  const auto stats = compiled->run();
  // Exactly two kernel launches, volume first (in-order dependency).
  ASSERT_EQ(stats.kernels.size(), 2u);
  EXPECT_EQ(stats.kernels[0].first, "lift_volume_step");
  EXPECT_EQ(stats.kernels[1].first, "lift_fimm_boundary");

  for (std::size_t i = 0; i < cells; ++i) {
    ASSERT_EQ(next[i], refNext[i]) << "cell " << i;
  }
}

TEST(HostProgram, RepeatedRunsWithSkipUploadsReuseDeviceState) {
  auto l5 = listing5();
  Room room{RoomShape::Box, 10, 10, 10};
  const RoomGrid grid = voxelize(room, 2);
  SimParams params;
  const auto mats = defaultMaterials(2, 0);
  std::vector<double> beta{mats[0].beta, mats[1].beta};
  const std::size_t cells = grid.cells();
  std::vector<double> curr(cells, 0.0), prev(cells, 0.0), next(cells, 0.0);
  curr[room.index(5, 5, 5)] = 1.0;

  ocl::Context ctx;
  auto compiled = l5.prog.compile(ctx, ir::ScalarKind::Double);
  bindListing5Inputs(*compiled, grid, curr, prev, beta, params);
  compiled->bindOutput("next_h", next.data(), cells * sizeof(double));

  compiled->run();
  const std::vector<double> first = next;

  // Re-run with uploads skipped and rotated device buffers:
  // prev2 <- prev1, prev1 <- next (in-place pointer swap on the device).
  auto prev1Buf = compiled->deviceBuffer(l5.prev1);
  auto nextBuf = compiled->deviceBuffer(l5.kernels.front());
  compiled->setDeviceBuffer(l5.prev2, prev1Buf);
  compiled->setDeviceBuffer(l5.prev1, nextBuf);
  const auto stats = compiled->run(/*skipUploads=*/true);
  EXPECT_DOUBLE_EQ(stats.transferMs >= 0.0, true);

  // The second step differs from the first (the wave moved).
  double diff = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    diff = std::max(diff, std::fabs(next[i] - first[i]));
  }
  EXPECT_GT(diff, 0.0);
}

// run() copies back only the outputs bound to a host pointer: a second
// output (the uploaded t-1 field) is bound and copied, while next_h, left
// unbound as DeviceSimulation leaves it, stays on the device with the
// step's result. A misspelled output name is rejected at bind time.
TEST(HostProgram, OnlyBoundOutputsAreCopiedBack) {
  Room room{RoomShape::Dome, 12, 10, 10};
  const RoomGrid grid = voxelize(room, 2);
  SimParams params;
  const auto mats = defaultMaterials(2, 0);
  std::vector<double> beta{mats[0].beta, mats[1].beta};
  Rng rng(11);
  const std::size_t cells = grid.cells();
  std::vector<double> curr(cells, 0.0), prev(cells, 0.0);
  for (std::size_t i = 0; i < cells; ++i) {
    if (grid.nbrs[i] > 0) {
      curr[i] = rng.uniform(-0.1, 0.1);
      prev[i] = rng.uniform(-0.1, 0.1);
    }
  }
  std::vector<double> refNext(cells, 0.0);
  refVolume(grid.nbrs.data(), prev.data(), curr.data(), refNext.data(),
            grid.nx, grid.ny, grid.nz, params.l2());
  refFiMmBoundary(grid.boundaryIndices.data(), grid.nbrs.data(),
                  grid.material.data(), beta.data(), prev.data(),
                  refNext.data(), static_cast<std::int64_t>(grid.boundaryPoints()),
                  params.l());

  auto l5 = listing5();
  l5.prog.toHost(l5.prev1, "curr_h");
  ocl::Context ctx;
  auto compiled = l5.prog.compile(ctx, ir::ScalarKind::Double);
  bindListing5Inputs(*compiled, grid, curr, prev, beta, params);
  std::vector<double> currBack(cells, -1.0);
  EXPECT_THROW(compiled->bindOutput("next_H", currBack.data(),
                                    cells * sizeof(double)),
               Error);
  compiled->bindOutput("curr_h", currBack.data(), cells * sizeof(double));

  compiled->run();
  EXPECT_EQ(currBack, curr);
  std::vector<double> next(cells, 0.0);
  compiled->deviceBuffer(l5.kernels.back())
      ->read(next.data(), cells * sizeof(double), 0);
  EXPECT_EQ(next, refNext);
}

TEST(HostProgram, GeneratedHostCodeMatchesTableIShapes) {
  auto l5 = listing5();
  const std::string code =
      l5.prog.generateHostCode(ir::ScalarKind::Double);
  // Table I host rows.
  EXPECT_TRUE(contains(code, "clEnqueueWriteBuffer(queue, prev1_h_g, prev1_h)"));
  EXPECT_TRUE(contains(code, "clEnqueueWriteBuffer(queue, prev2_h_g, prev2_h)"));
  EXPECT_TRUE(contains(code, "lift_volume_step.setArg(0, prev2_h_g)"));
  EXPECT_TRUE(contains(code, "clEnqueueNDRangeKernel(queue, lift_volume_step"));
  EXPECT_TRUE(contains(code, "clEnqueueNDRangeKernel(queue, lift_fimm_boundary"));
  // The boundary kernel is in-place: no fresh output allocation for it.
  EXPECT_TRUE(contains(code, "WriteTo: lift_fimm_boundary writes into"));
  EXPECT_TRUE(contains(code, "clEnqueueReadBuffer(queue,"));
  // The volume kernel's fresh output *is* allocated.
  EXPECT_TRUE(contains(code, "cl_mem out_"));
}

TEST(HostProgram, FdMmHostCodeShowsThreeInPlaceArrays) {
  // The generated host code for the FD-MM two-kernel program must show the
  // boundary kernel writing in place (no fresh output) while the volume
  // kernel allocates one.
  const HostProgram prog =
      lift_acoustics::buildStepProgram(lift_acoustics::DeviceModel::FdMm,
                                       ir::ScalarKind::Double, 3, {})
          .prog;

  const std::string code = prog.generateHostCode(ir::ScalarKind::Double);
  EXPECT_TRUE(contains(code, "clEnqueueNDRangeKernel(queue, lift_volume_step"));
  EXPECT_TRUE(contains(code, "clEnqueueNDRangeKernel(queue, lift_fdmm_boundary"));
  // Exactly one fresh output allocation (the volume kernel's).
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = code.find("cl_mem out_", pos)) != std::string::npos; ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(contains(code, "WriteTo: lift_fdmm_boundary writes into"));
}

TEST(HostProgram, ErrorsOnUnboundInputs) {
  auto l5 = listing5();
  ocl::Context ctx;
  auto compiled = l5.prog.compile(ctx, ir::ScalarKind::Double);
  EXPECT_THROW(compiled->run(), Error);
}

TEST(HostProgram, ErrorsOnUndeclaredScalar) {
  HostProgram prog;
  auto h = prog.hostParam("a");
  auto g = prog.toGPU(h);
  KernelSpec spec;
  spec.def = lift_acoustics::liftVolumeKernel(ir::ScalarKind::Float);
  spec.args = {{g, ""}};
  spec.launchCountScalar = "cells";  // never declared
  EXPECT_THROW(prog.kernelCall(spec), Error);
  (void)g;
}

TEST(HostProgram, ErrorsOnArityMismatch) {
  HostProgram prog;
  prog.declareScalar("cells", ScalarType::Int);
  auto h = prog.hostParam("a");
  auto g = prog.toGPU(h);
  KernelSpec spec;
  spec.def = lift_acoustics::liftVolumeKernel(ir::ScalarKind::Float);
  spec.args = {{g, ""}};  // far too few arguments
  spec.launchCountScalar = "cells";
  auto call = prog.kernelCall(spec);
  ocl::Context ctx;
  EXPECT_THROW(prog.compile(ctx, ir::ScalarKind::Float), Error);
  (void)call;
}

TEST(HostProgram, OutputWithoutBufferRejected) {
  // ToHost of an effect-only kernel that was never wrapped in WriteTo: the
  // expression has no device buffer to read back. The host lint catches this
  // at compile time, before any kernel is built.
  HostProgram prog;
  prog.declareScalar("cells", ScalarType::Int);
  prog.declareScalar("numB", ScalarType::Int);
  prog.declareScalar("M", ScalarType::Int);
  prog.declareScalar("l", ScalarType::Real);
  auto bound = prog.toGPU(prog.hostParam("b"));
  auto mat = prog.toGPU(prog.hostParam("m"));
  auto nbrs = prog.toGPU(prog.hostParam("n"));
  auto beta = prog.toGPU(prog.hostParam("be"));
  auto next = prog.toGPU(prog.hostParam("nx"));
  auto prev = prog.toGPU(prog.hostParam("pv"));
  KernelSpec spec;
  spec.def = lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double);
  spec.args = {{bound, ""},        {mat, ""},         {nbrs, ""},
               {beta, ""},         {next, ""},        {prev, ""},
               {nullptr, "cells"}, {nullptr, "numB"}, {nullptr, "M"},
               {nullptr, "l"}};
  spec.launchCountScalar = "numB";
  auto call = prog.kernelCall(spec);
  prog.toHost(call, "out");  // no WriteTo: the kernel is effect-only

  ocl::Context ctx;
  EXPECT_THROW(prog.compile(ctx, ir::ScalarKind::Double), Error);
}

TEST(HostProgram, ToGpuRequiresHostParam) {
  HostProgram prog;
  auto h = prog.hostParam("a");
  auto g = prog.toGPU(h);
  EXPECT_THROW(prog.toGPU(g), Error);  // ToGPU of a device value
}

}  // namespace
}  // namespace lifta::host
