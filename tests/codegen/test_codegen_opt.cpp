// The optimizer pipeline's two contracts, as tests:
//
//  1. Golden-source snapshots of optimized kernels. Any change to the
//     pass pipeline shows up as a source diff against tests/codegen/golden/;
//     regenerate deliberately with LIFTA_UPDATE_GOLDEN=1.
//  2. Bit-identity: optimized and unoptimized codegen must produce
//     bitwise-identical results for all four models (FI, FI-MM, FD-MM,
//     geophys FDTD2D) across two grid shapes. The optimizer may only
//     change how indices are computed and work is scheduled, never a
//     single FP operation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "acoustics/geometry.hpp"
#include "analysis/equiv.hpp"
#include "acoustics/materials.hpp"
#include "acoustics/sim_params.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/rng.hpp"
#include "geophys/fdtd2d.hpp"
#include "geophys/lift_kernels.hpp"
#include "harness/launcher.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/runtime.hpp"

#ifndef LIFTA_GOLDEN_DIR
#define LIFTA_GOLDEN_DIR "tests/codegen/golden"
#endif

namespace lifta::codegen {
namespace {

using namespace lifta::acoustics;
using harness::ArgMap;
using harness::download;
using harness::upload;

ocl::Context& sharedContext() {
  static ocl::Context ctx;
  return ctx;
}

CodegenOptions optimized() { return CodegenOptions{}; }

CodegenOptions unoptimized() {
  CodegenOptions o;
  o.optimize = false;
  return o;
}

// --- golden snapshots -------------------------------------------------------

void checkGolden(const std::string& name, const std::string& body) {
  const std::string path = std::string(LIFTA_GOLDEN_DIR) + "/" + name + ".c";
  if (std::getenv("LIFTA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << body;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "golden file missing: " << path
                         << " (regenerate with LIFTA_UPDATE_GOLDEN=1)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), body)
      << "optimized codegen for '" << name << "' drifted from " << path
      << "; if intentional, regenerate with LIFTA_UPDATE_GOLDEN=1";
}

TEST(CodegenOptGolden, VolumeDouble) {
  checkGolden("volume_double_opt",
              generateKernel(lift_acoustics::liftVolumeKernel(
                                 ir::ScalarKind::Double),
                             optimized())
                  .body);
}

TEST(CodegenOptGolden, FusedFiDouble) {
  checkGolden("fused_fi_double_opt",
              generateKernel(lift_acoustics::liftFusedFiKernel(
                                 ir::ScalarKind::Double),
                             optimized())
                  .body);
}

TEST(CodegenOptGolden, FiMmDouble) {
  checkGolden(
      "fimm_double_opt",
      generateKernel(lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double),
                     optimized())
          .body);
}

TEST(CodegenOptGolden, FdMm3Double) {
  checkGolden("fdmm3_double_opt",
              generateKernel(lift_acoustics::liftFdMmKernel(
                                 ir::ScalarKind::Double, 3),
                             optimized())
                  .body);
}

TEST(CodegenOptGolden, GeophysEmHDouble) {
  checkGolden(
      "em_h_double_opt",
      generateKernel(geophys::liftEmHKernel(ir::ScalarKind::Double),
                     optimized())
          .body);
}

TEST(CodegenOptGolden, OptOutEnvDisablesTheOptimizer) {
  // LIFTA_CODEGEN_OPT=0 must reproduce the legacy source exactly.
  setenv("LIFTA_CODEGEN_OPT", "0", 1);
  const auto viaEnv =
      generateKernel(lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double));
  unsetenv("LIFTA_CODEGEN_OPT");
  const auto explicitOff = generateKernel(
      lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double), unoptimized());
  EXPECT_EQ(viaEnv.source, explicitOff.source);
  EXPECT_FALSE(viaEnv.optimized);
  EXPECT_EQ(viaEnv.preferredChunk, 0);
}

// --- constant specialization ------------------------------------------------

TEST(CodegenSpecialize, BakesConstantsIntoSourceAndDigest) {
  const auto def = lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double);
  CodegenOptions o;
  o.spec.ints = {{"nx", 16}, {"nxny", 16 * 14}, {"cells", 16 * 14 * 12}};
  o.spec.reals = {{"l2", 0.09}};
  const auto spec = generateKernel(def, o);
  const auto gen = generateKernel(def, optimized());

  EXPECT_NE(spec.source, gen.source);
  EXPECT_TRUE(gen.specDigest.empty());
  ASSERT_FALSE(spec.specDigest.empty());
  // The digest header makes the constants part of the JIT content hash
  // even when substitution leaves the body unchanged.
  EXPECT_NE(spec.source.find("// specialized: " + spec.specDigest),
            std::string::npos);
  // Loop bounds and index algebra fold to literals...
  EXPECT_NE(spec.body.find(std::to_string(16 * 14 * 12)), std::string::npos);
  // ...and the real coefficient becomes an exact round-trip literal.
  EXPECT_NE(spec.body.find(memory::Specialization::realLiteral(
                0.09, ir::ScalarKind::Double)),
            std::string::npos);
}

TEST(CodegenSpecialize, SpecializedKernelsPassTranslationValidation) {
  for (const bool fd : {false, true}) {
    const auto def =
        fd ? lift_acoustics::liftFdMmKernel(ir::ScalarKind::Double, 3)
           : lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double);
    memory::Specialization spec;
    spec.ints = {{"cells", 2688}, {"numB", 1154}, {"M", 4}};
    spec.reals = {{"l", 0.3}};
    const auto report = analysis::validateTranslation(def, spec);
    EXPECT_FALSE(report.hasErrors()) << (fd ? "fd-mm" : "fi-mm");
    // The gate form inside generateKernel covers the same path end to end.
    CodegenOptions o;
    o.spec = spec;
    EXPECT_NO_THROW(generateKernel(def, o));
  }
}

TEST(CodegenSpecialize, DistinctConstantsYieldDistinctDigests) {
  memory::Specialization a, b;
  a.ints = {{"cells", 1000}};
  b.ints = {{"cells", 1001}};
  EXPECT_NE(a.digest(), b.digest());
  memory::Specialization ra, rb;
  ra.reals = {{"l", 0.5}};
  rb.reals = {{"l", 0.5000000000000001}};  // adjacent double, distinct bits
  EXPECT_NE(ra.digest(), rb.digest());
  EXPECT_EQ(memory::Specialization{}.digest(), "");
}

// --- bit-identity across optimization levels --------------------------------

/// Deterministic state for one room (mirrors the lift-kernel tests).
struct AcState {
  RoomGrid grid;
  SimParams params;
  std::vector<Material> mats;
  FdCoeffs fd;
  int branches;
  std::vector<double> prev, curr, next, beta, bi, d, di, f, g1, v1, v2;

  AcState(const Room& room, int numMaterials, int numBranches)
      : branches(numBranches) {
    grid = voxelize(room, numMaterials);
    mats = defaultMaterials(numMaterials, numBranches);
    fd = deriveFdCoeffs(mats, numBranches, params.Ts());
    for (const auto& m : mats) beta.push_back(m.beta);
    bi = fd.BI;
    d = fd.D;
    di = fd.DI;
    f = fd.F;
    Rng rng(42);
    prev.assign(grid.cells(), 0.0);
    curr.assign(grid.cells(), 0.0);
    next.assign(grid.cells(), 0.0);
    for (std::size_t i = 0; i < grid.cells(); ++i) {
      if (grid.nbrs[i] > 0) {
        prev[i] = rng.uniform(-0.1, 0.1);
        curr[i] = rng.uniform(-0.1, 0.1);
      }
    }
    const std::size_t stateLen =
        static_cast<std::size_t>(numBranches) * grid.boundaryPoints();
    g1.assign(stateLen, 0.0);
    v1.assign(stateLen, 0.0);
    v2.assign(stateLen, 0.0);
    for (std::size_t i = 0; i < stateLen; ++i) {
      g1[i] = rng.uniform(-0.01, 0.01);
      v2[i] = rng.uniform(-0.01, 0.01);
    }
  }
};

/// Runs `def` once under `opts` with fresh buffers from `makeArgs` and
/// downloads the buffers named in `outs` (name, length).
template <typename MakeArgs>
std::vector<std::vector<double>> runOnce(
    const memory::KernelDef& def, const CodegenOptions& opts, std::size_t n,
    const std::vector<std::pair<std::string, std::size_t>>& outs,
    MakeArgs&& makeArgs) {
  auto& ctx = sharedContext();
  ocl::CommandQueue q(ctx);
  const auto gen = generateKernel(def, opts);
  ocl::Kernel k(ctx.buildProgram(gen.source), gen.name);
  ArgMap args = makeArgs(ctx, q);
  harness::bindKernelArgs(k, gen.plan, args);
  q.enqueueNDRange(k, harness::launchConfigFor(gen, n, 64, ctx.pool()));
  std::vector<std::vector<double>> result;
  for (const auto& [name, len] : outs) {
    result.push_back(
        download<double>(q, std::get<ocl::BufferPtr>(args.at(name)), len));
  }
  return result;
}

template <typename MakeArgs>
void expectBitIdentical(
    const memory::KernelDef& def, std::size_t n,
    const std::vector<std::pair<std::string, std::size_t>>& outs,
    MakeArgs&& makeArgs) {
  const auto opt = runOnce(def, optimized(), n, outs, makeArgs);
  const auto ref = runOnce(def, unoptimized(), n, outs, makeArgs);
  ASSERT_EQ(opt.size(), ref.size());
  for (std::size_t o = 0; o < opt.size(); ++o) {
    ASSERT_EQ(opt[o].size(), ref[o].size()) << outs[o].first;
    for (std::size_t i = 0; i < opt[o].size(); ++i) {
      ASSERT_EQ(opt[o][i], ref[o][i])
          << outs[o].first << " diverges at element " << i;
    }
  }
}

// Two deliberately different shapes: a dome (irregular boundary set) and a
// flat box with a long x extent (different index arithmetic mix).
const Room kRooms[] = {Room{RoomShape::Dome, 18, 16, 14},
                       Room{RoomShape::Box, 26, 10, 12}};

TEST(CodegenOptIdentity, FusedFiMatchesUnoptimized) {
  for (const auto& room : kRooms) {
    AcState s(room, 1, 0);
    expectBitIdentical(
        lift_acoustics::liftFusedFiKernel(ir::ScalarKind::Double),
        s.grid.cells(), {{"out", s.grid.cells()}},
        [&](ocl::Context& ctx, ocl::CommandQueue& q) {
          return ArgMap{{"prev", upload(ctx, q, s.prev)},
                        {"curr", upload(ctx, q, s.curr)},
                        {"nbrs", upload(ctx, q, s.grid.nbrs)},
                        {"nx", s.grid.nx},
                        {"nxny", s.grid.nx * s.grid.ny},
                        {"cells", static_cast<int>(s.grid.cells())},
                        {"l", s.params.l()},
                        {"l2", s.params.l2()},
                        {"beta", s.beta[0]},
                        {"out", upload(ctx, q, s.next)}};
        });
  }
}

TEST(CodegenOptIdentity, FiMmMatchesUnoptimized) {
  for (const auto& room : kRooms) {
    AcState s(room, 3, 0);
    expectBitIdentical(
        lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double),
        s.grid.boundaryPoints(), {{"next", s.grid.cells()}},
        [&](ocl::Context& ctx, ocl::CommandQueue& q) {
          return ArgMap{{"boundaryIndices", upload(ctx, q, s.grid.boundaryIndices)},
                        {"material", upload(ctx, q, s.grid.material)},
                        {"nbrs", upload(ctx, q, s.grid.nbrs)},
                        {"beta", upload(ctx, q, s.beta)},
                        {"next", upload(ctx, q, s.curr)},
                        {"prev", upload(ctx, q, s.prev)},
                        {"cells", static_cast<int>(s.grid.cells())},
                        {"numB", static_cast<int>(s.grid.boundaryPoints())},
                        {"M", static_cast<int>(s.beta.size())},
                        {"l", s.params.l()}};
        });
  }
}

TEST(CodegenOptIdentity, FdMmMatchesUnoptimized) {
  for (const auto& room : kRooms) {
    AcState s(room, 3, 3);
    const std::size_t stateLen = 3 * s.grid.boundaryPoints();
    expectBitIdentical(
        lift_acoustics::liftFdMmKernel(ir::ScalarKind::Double, 3),
        s.grid.boundaryPoints(),
        {{"next", s.grid.cells()}, {"g1", stateLen}, {"v1", stateLen}},
        [&](ocl::Context& ctx, ocl::CommandQueue& q) {
          return ArgMap{{"boundaryIndices", upload(ctx, q, s.grid.boundaryIndices)},
                        {"material", upload(ctx, q, s.grid.material)},
                        {"nbrs", upload(ctx, q, s.grid.nbrs)},
                        {"beta", upload(ctx, q, s.beta)},
                        {"BI", upload(ctx, q, s.bi)},
                        {"D", upload(ctx, q, s.d)},
                        {"DI", upload(ctx, q, s.di)},
                        {"F", upload(ctx, q, s.f)},
                        {"next", upload(ctx, q, s.curr)},
                        {"prev", upload(ctx, q, s.prev)},
                        {"g1", upload(ctx, q, s.g1)},
                        {"v1", upload(ctx, q, s.v1)},
                        {"v2", upload(ctx, q, s.v2)},
                        {"cells", static_cast<int>(s.grid.cells())},
                        {"numB", static_cast<int>(s.grid.boundaryPoints())},
                        {"M", static_cast<int>(s.beta.size())},
                        {"l", s.params.l()}};
        });
  }
}

TEST(CodegenOptIdentity, GeophysFdtd2DMatchesUnoptimized) {
  const std::pair<int, int> scenes[] = {{22, 18}, {31, 14}};
  for (const auto& [nx, ny] : scenes) {
    const auto scene = geophys::buildGprScene(nx, ny, 4, 3.0, 12.0, 3);
    Rng rng(77);
    const std::size_t n = scene.cells();
    std::vector<double> ez(n), hx(n), hy(n);
    for (std::size_t i = 0; i < n; ++i) {
      ez[i] = rng.uniform(-0.1, 0.1);
      hx[i] = rng.uniform(-0.1, 0.1);
      hy[i] = rng.uniform(-0.1, 0.1);
    }
    expectBitIdentical(
        geophys::liftEmHKernel(ir::ScalarKind::Double), n,
        {{"hx", n}, {"hy", n}},
        [&](ocl::Context& ctx, ocl::CommandQueue& q) {
          return ArgMap{{"hx", upload(ctx, q, hx)},
                        {"hy", upload(ctx, q, hy)},
                        {"ez", upload(ctx, q, ez)},
                        {"nx", scene.nx},
                        {"ny", scene.ny},
                        {"cells", static_cast<int>(n)},
                        {"S", geophys::kCourant2D}};
        });
  }
}

}  // namespace
}  // namespace lifta::codegen
