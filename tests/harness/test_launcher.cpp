#include "harness/launcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "ir/typecheck.hpp"

namespace lifta::harness {
namespace {

using namespace lifta::ir;

codegen::GeneratedKernel tinyKernel() {
  memory::KernelDef def;
  def.name = "tiny";
  auto a = param("A", Type::array(Type::float_(), arith::Expr::var("N")));
  auto n = param("N", Type::int_());
  auto s = param("scale", Type::float_());
  auto x = param("x", nullptr);
  def.params = {a, n, s};
  def.body = mapGlb(lambda({x}, x * s), a);
  return codegen::generateKernel(def);
}

TEST(Launcher, BindsByNameRegardlessOfOrder) {
  const auto gen = tinyKernel();
  ocl::Context ctx;
  ocl::CommandQueue q(ctx);
  auto program = ctx.buildProgram(gen.source);
  ocl::Kernel k(program, gen.name);
  std::vector<float> in{1, 2, 3, 4};
  auto bufIn = upload(ctx, q, in);
  auto bufOut = ctx.allocate(4 * sizeof(float));
  // Deliberately scrambled map order.
  bindKernelArgs(k, gen.plan,
                 ArgMap{{"out", bufOut},
                        {"scale", 10.0f},
                        {"A", bufIn},
                        {"N", 4}});
  q.enqueueNDRange(k, ocl::NDRange::linear(4, 4));
  const auto out = download<float>(q, bufOut, 4);
  EXPECT_FLOAT_EQ(out[2], 30.0f);
}

TEST(Launcher, MissingArgumentThrows) {
  const auto gen = tinyKernel();
  ocl::Context ctx;
  auto program = ctx.buildProgram(gen.source);
  ocl::Kernel k(program, gen.name);
  EXPECT_THROW(bindKernelArgs(k, gen.plan, ArgMap{{"A", 1}}), Error);
}

TEST(Launcher, ScalarKindMismatchThrows) {
  const auto gen = tinyKernel();
  ocl::Context ctx;
  auto program = ctx.buildProgram(gen.source);
  ocl::Kernel k(program, gen.name);
  auto buf = ctx.allocate(16);
  // scale must be float; passing double must be rejected (not converted).
  EXPECT_THROW(bindKernelArgs(k, gen.plan,
                              ArgMap{{"A", buf},
                                     {"N", 4},
                                     {"scale", 10.0},
                                     {"out", buf}}),
               Error);
  // Buffer where scalar expected.
  EXPECT_THROW(bindKernelArgs(k, gen.plan,
                              ArgMap{{"A", buf},
                                     {"N", buf},
                                     {"scale", 1.0f},
                                     {"out", buf}}),
               Error);
  // Scalar where buffer expected.
  EXPECT_THROW(bindKernelArgs(k, gen.plan,
                              ArgMap{{"A", 7},
                                     {"N", 4},
                                     {"scale", 1.0f},
                                     {"out", buf}}),
               Error);
}

TEST(Launcher, LaunchConfigRoundsAndCaps) {
  auto r = launchConfig(100, 32);
  EXPECT_EQ(r.global[0], 128u);
  EXPECT_EQ(r.local[0], 32u);

  r = launchConfig(1u << 20, 64, 1u << 14);
  EXPECT_EQ(r.global[0], 1u << 14);

  r = launchConfig(0, 16);
  EXPECT_EQ(r.global[0], 16u);  // at least one work-group
}

// The one launch rule for chunk-scheduled kernels, checked against the
// kernel's own per-item formula c = max(ceil(n / gsz), chunk), item i
// covering [i*c, min((i+1)*c, n)). The sizes are the 96x72x56 box's
// boundary launches (edge 848; faces 3,536 / 4,784 / 6,256), the
// micro_compiler FD-MM launch (16,110), a volume launch (387,072) and a
// launch smaller than one chunk. A rule that pads small launches to 256
// items in 64-item groups leaves the face launches with work in only 1-2
// of their groups and the edge launch in one.
TEST(Launcher, ChunkedLaunchCoversOnceAndReachesEveryThread) {
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kLocal = 64;
  ThreadPool pool(4);
  codegen::GeneratedKernel gen;
  gen.preferredChunk = static_cast<int>(kChunk);
  for (const std::size_t n : {8, 848, 3536, 4784, 6256, 16110, 387072}) {
    const auto r = launchConfigFor(gen, n, kLocal, pool);
    const std::size_t gsz = r.global[0];
    const std::size_t lsz = r.local[0];
    ASSERT_EQ(gsz % lsz, 0u) << "n=" << n;
    EXPECT_LE(lsz, kLocal) << "n=" << n;
    const std::size_t c = std::max((n + gsz - 1) / gsz, kChunk);
    EXPECT_EQ(c, kChunk) << "n=" << n << ": the per-item chunk grew";
    std::vector<int> owners(n, 0);
    std::set<std::size_t> busyGroups;
    for (std::size_t i = 0; i < gsz; ++i) {
      const std::size_t lo = i * c;
      const std::size_t hi = std::min(lo + c, n);
      for (std::size_t k = lo; k < hi; ++k) ++owners[k];
      if (lo < hi) busyGroups.insert(i / lsz);
    }
    EXPECT_TRUE(std::all_of(owners.begin(), owners.end(),
                            [](int o) { return o == 1; }))
        << "n=" << n << ": [0, n) not covered exactly once";
    const std::size_t items = (n + kChunk - 1) / kChunk;
    EXPECT_GE(busyGroups.size(), std::min<std::size_t>(4, items))
        << "n=" << n << ": global " << gsz << ", local " << lsz;
  }
}

TEST(Launcher, UploadDownloadRoundTrip) {
  ocl::Context ctx;
  ocl::CommandQueue q(ctx);
  std::vector<double> data{1.5, -2.5, 3.25};
  auto buf = upload(ctx, q, data);
  const auto back = download<double>(q, buf, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace lifta::harness
