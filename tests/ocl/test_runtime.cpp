// End-to-end tests of the simulated OpenCL runtime: JIT compilation of a
// hand-written kernel source, argument binding, NDRange execution, and the
// grid-stride-loop convention used by generated kernels.
#include "ocl/runtime.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "codegen/kernel_codegen.hpp"
#include "common/error.hpp"

namespace lifta::ocl {
namespace {

const char* kScaleKernel = R"(
#include <math.h>
typedef float real;
typedef struct {
  long gid[3]; long gsz[3]; long lid[3]; long lsz[3];
  long wg[3]; long nwg[3];
} lifta_wi_ctx;
extern "C" void scale(void** args, const lifta_wi_ctx* ctx) {
  real* out = (real*)args[0];
  const real* in = (const real*)args[1];
  const int n = *(const int*)args[2];
  const real f = *(const real*)args[3];
  for (long i = ctx->gid[0]; i < n; i += ctx->gsz[0]) out[i] = in[i] * f;
}
)";

TEST(OclRuntime, CompilesAndRunsHandwrittenKernel) {
  Context ctx;
  auto program = ctx.buildProgram(kScaleKernel);
  Kernel k(program, "scale");

  const int n = 1000;
  std::vector<float> in(n);
  std::iota(in.begin(), in.end(), 0.0f);
  auto bufIn = ctx.allocate(n * sizeof(float));
  auto bufOut = ctx.allocate(n * sizeof(float));
  CommandQueue q(ctx);
  q.enqueueWrite(*bufIn, in.data(), n * sizeof(float));

  k.setArg(0, bufOut);
  k.setArg(1, bufIn);
  k.setArg(2, n);
  k.setArg(3, 2.5f);
  const Event e = q.enqueueNDRange(k, NDRange::linear(128, 32));
  EXPECT_GE(e.milliseconds, 0.0);

  std::vector<float> out(n);
  q.enqueueRead(*bufOut, out.data(), n * sizeof(float));
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(out[i], i * 2.5f);
}

TEST(OclRuntime, ProgramCacheReusesCompilation) {
  Context ctx;
  const std::size_t before = Jit::instance().compiledCount();
  auto p1 = ctx.buildProgram(kScaleKernel);
  auto p2 = ctx.buildProgram(kScaleKernel);
  const std::size_t after = Jit::instance().compiledCount();
  // Second build must come from the cache.
  EXPECT_LE(after - before, 1u);
  EXPECT_EQ(p1->entry("scale"), p2->entry("scale"));
}

TEST(OclRuntime, BuildFailureReportsCompilerLog) {
  Context ctx;
  try {
    ctx.buildProgram("this is not C++");
    FAIL() << "expected OclError";
  } catch (const OclError& e) {
    EXPECT_NE(std::string(e.what()).find("build failed"), std::string::npos);
  }
}

TEST(OclRuntime, MissingKernelSymbolThrows) {
  Context ctx;
  auto program = ctx.buildProgram(kScaleKernel);
  EXPECT_THROW(Kernel(program, "no_such_kernel"), OclError);
}

TEST(OclRuntime, UnsetArgumentThrowsAtLaunch) {
  Context ctx;
  auto program = ctx.buildProgram(kScaleKernel);
  Kernel k(program, "scale");
  k.setArg(0, ctx.allocate(16));
  k.setArg(3, 1.0f);  // slots 1 and 2 left unset
  CommandQueue q(ctx);
  EXPECT_THROW(q.enqueueNDRange(k, NDRange::linear(32, 32)), OclError);
}

TEST(OclRuntime, InvalidNDRangeRejected) {
  EXPECT_THROW(NDRange::linear(100, 32), OclError);
  EXPECT_THROW(NDRange::linear(64, 0), OclError);
  EXPECT_NO_THROW(NDRange::linear(128, 32));
}

TEST(OclRuntime, WorkGroupSizeLimitEnforced) {
  DeviceProfile d = nativeDevice();
  d.maxWorkGroupSize = 64;
  Context ctx(d);
  auto program = ctx.buildProgram(kScaleKernel);
  Kernel k(program, "scale");
  auto buf = ctx.allocate(16);
  k.setArg(0, buf);
  k.setArg(1, buf);
  k.setArg(2, 4);
  k.setArg(3, 1.0f);
  CommandQueue q(ctx);
  EXPECT_THROW(q.enqueueNDRange(k, NDRange::linear(256, 128)), OclError);
}

TEST(OclRuntime, BufferRangeChecks) {
  Buffer b(64);
  std::vector<char> data(65, 0);
  EXPECT_THROW(b.write(data.data(), 65), Error);
  EXPECT_THROW(b.read(data.data(), 32, 40), Error);
  EXPECT_NO_THROW(b.write(data.data(), 64));
}

TEST(OclRuntime, BufferOffsetOverflowRejected) {
  // Regression: `offset + bytes` wraps around for huge offsets, which used
  // to make the bounds check pass and memcpy far outside the allocation.
  Buffer b(64);
  std::vector<char> data(8, 0);
  const std::size_t hugeOffset = static_cast<std::size_t>(-4);  // SIZE_MAX-3
  EXPECT_THROW(b.write(data.data(), 8, hugeOffset), Error);
  EXPECT_THROW(b.read(data.data(), 8, hugeOffset), Error);
  EXPECT_THROW(b.write(data.data(), static_cast<std::size_t>(-1), 2), Error);
  // Legitimate edge cases still pass: a full-size write at offset 0 and an
  // empty transfer at the end of the buffer.
  EXPECT_NO_THROW(b.write(data.data(), 8, 56));
  EXPECT_NO_THROW(b.read(data.data(), 0, 64));
}

TEST(OclRuntime, NullBufferArgRejectedAtSetTime) {
  // Regression: a null BufferPtr used to be accepted and only blew up as a
  // null dereference inside enqueueNDRange.
  Context ctx;
  auto program = ctx.buildProgram(kScaleKernel);
  Kernel k(program, "scale");
  try {
    k.setArg(1, BufferPtr{});
    FAIL() << "expected OclError";
  } catch (const OclError& e) {
    EXPECT_NE(std::string(e.what()).find("argument 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("null buffer"), std::string::npos);
  }
  // The slot stays unset, so launching still reports it cleanly.
  k.setArg(0, ctx.allocate(16));
  k.setArg(2, 4);
  k.setArg(3, 1.0f);
  CommandQueue q(ctx);
  EXPECT_THROW(q.enqueueNDRange(k, NDRange::linear(32, 32)), OclError);
}

TEST(OclRuntime, ZeroGlobalSizeRejectedAtConstruction) {
  // Regression: NDRange::linear(0, l) used to validate (0 % l == 0) and only
  // fail later inside enqueueNDRange; both paths must report at creation.
  EXPECT_THROW(NDRange::linear(0, 1), OclError);
  EXPECT_THROW(NDRange::linear(0, 32), OclError);
  EXPECT_THROW(NDRange::linear(0, 0), OclError);
}

TEST(OclRuntime, GridStrideCoversAllElementsWithFewWorkItems) {
  // 10 work-items, 1000 elements: the kernel's grid-stride loop must still
  // touch every element exactly once.
  Context ctx;
  auto program = ctx.buildProgram(kScaleKernel);
  Kernel k(program, "scale");
  const int n = 1000;
  std::vector<float> in(n, 1.0f);
  auto bufIn = ctx.allocate(n * sizeof(float));
  auto bufOut = ctx.allocate(n * sizeof(float));
  CommandQueue q(ctx);
  q.enqueueWrite(*bufIn, in.data(), n * sizeof(float));
  k.setArg(0, bufOut);
  k.setArg(1, bufIn);
  k.setArg(2, n);
  k.setArg(3, 3.0f);
  q.enqueueNDRange(k, NDRange::linear(10, 10));
  std::vector<float> out(n);
  q.enqueueRead(*bufOut, out.data(), n * sizeof(float));
  double sum = 0;
  for (float v : out) sum += v;
  EXPECT_DOUBLE_EQ(sum, 3000.0);
}

TEST(OclRuntime, PaperPlatformsMatchTableIII) {
  const auto platforms = paperPlatforms();
  ASSERT_EQ(platforms.size(), 4u);
  EXPECT_EQ(platforms[0].name, "NVIDIA GTX 780");
  EXPECT_DOUBLE_EQ(platforms[0].memBandwidthGBs, 288.0);
  EXPECT_DOUBLE_EQ(platforms[2].memBandwidthGBs, 337.0);
  EXPECT_DOUBLE_EQ(platforms[3].peakSpGflops, 5733.0);
}

TEST(OclRuntime, GeneratedKernelRunsEndToEnd) {
  // Full pipeline: LIFT IR → codegen → JIT → NDRange execution.
  using namespace lifta::ir;
  memory::KernelDef def;
  def.name = "gen_add1";
  auto a = param("A", Type::array(Type::float_(), arith::Expr::var("N")));
  auto nP = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {a, nP};
  def.body = mapGlb(lambda({x}, x + litFloat(1.0f)), a);
  const auto gen = codegen::generateKernel(def);

  Context ctx;
  auto program = ctx.buildProgram(gen.source);
  Kernel k(program, "gen_add1");
  const int n = 513;  // deliberately not a multiple of the local size
  std::vector<float> in(n);
  std::iota(in.begin(), in.end(), 0.0f);
  auto bufIn = ctx.allocate(n * sizeof(float));
  auto bufOut = ctx.allocate(n * sizeof(float));
  CommandQueue q(ctx);
  q.enqueueWrite(*bufIn, in.data(), n * sizeof(float));
  k.setArg(0, bufIn);
  k.setArg(1, n);
  k.setArg(2, bufOut);
  q.enqueueNDRange(k, NDRange::linear(256, 64));
  std::vector<float> out(n);
  q.enqueueRead(*bufOut, out.data(), n * sizeof(float));
  for (int i = 0; i < n; ++i) ASSERT_FLOAT_EQ(out[i], i + 1.0f);
}

// Real Min/Max are the libm functions the generator emits. The preamble
// includes no header, and in C++ an undeclared fmin is a compile error, so
// they must build and run through the preamble's builtin wrappers in both
// precisions.
template <typename T>
void expectGeneratedMinMaxRuns(ir::ScalarKind real) {
  using namespace lifta::ir;
  const std::vector<T> a{1.5, -2.0, 3.0, 7.25, -0.5};
  const std::vector<T> b{0.5, -3.0, 3.0, 9.0, 4.0};
  const int n = static_cast<int>(a.size());
  const auto elem =
      real == ScalarKind::Float ? Type::float_() : Type::double_();
  Context ctx;
  CommandQueue q(ctx);
  for (const BinOp op : {BinOp::Min, BinOp::Max}) {
    memory::KernelDef def;
    def.name = op == BinOp::Min ? "gen_min" : "gen_max";
    def.real = real;
    auto pa = param("A", Type::array(elem, arith::Expr::var("N")));
    auto pb = param("B", Type::array(elem, arith::Expr::var("N")));
    auto nP = param("N", Type::int_());
    auto p = param("p", nullptr);
    def.params = {pa, pb, nP};
    def.body = mapGlb(lambda({p}, binary(op, get(p, 0), get(p, 1))),
                      zip({pa, pb}));
    const auto gen = codegen::generateKernel(def);
    Kernel k(ctx.buildProgram(gen.source), gen.name);
    auto bufA = ctx.allocate(a.size() * sizeof(T));
    auto bufB = ctx.allocate(b.size() * sizeof(T));
    auto bufOut = ctx.allocate(a.size() * sizeof(T));
    q.enqueueWrite(*bufA, a.data(), a.size() * sizeof(T));
    q.enqueueWrite(*bufB, b.data(), b.size() * sizeof(T));
    k.setArg(0, bufA);
    k.setArg(1, bufB);
    k.setArg(2, n);
    k.setArg(3, bufOut);
    q.enqueueNDRange(k, NDRange::linear(64, 64));
    std::vector<T> out(a.size());
    q.enqueueRead(*bufOut, out.data(), out.size() * sizeof(T));
    for (std::size_t i = 0; i < a.size(); ++i) {
      const T want =
          op == BinOp::Min ? std::fmin(a[i], b[i]) : std::fmax(a[i], b[i]);
      EXPECT_EQ(out[i], want) << def.name << " element " << i;
    }
  }
}

TEST(OclRuntime, GeneratedRealMinMaxRunWithoutHeaders) {
  expectGeneratedMinMaxRuns<float>(ir::ScalarKind::Float);
  expectGeneratedMinMaxRuns<double>(ir::ScalarKind::Double);
}

TEST(OclRuntime, TwoDimensionalNDRangeCoversAllItems) {
  Context ctx;
  auto program = ctx.buildProgram(R"(
typedef struct { long gid[3]; long gsz[3]; long lid[3]; long lsz[3];
                 long wg[3]; long nwg[3]; } lifta_wi_ctx;
extern "C" void mark2d(void** args, const lifta_wi_ctx* ctx) {
  int* out = (int*)args[0];
  const int w = *(const int*)args[1];
  out[ctx->gid[1] * w + ctx->gid[0]] += 1;
}
)");
  Kernel k(program, "mark2d");
  const int w = 16, h = 12;
  auto buf = ctx.allocate(static_cast<std::size_t>(w) * h * sizeof(int));
  k.setArg(0, buf);
  k.setArg(1, w);
  NDRange r;
  r.global = {16, 12, 1};
  r.local = {4, 3, 1};
  r.dims = 2;
  CommandQueue q(ctx);
  q.enqueueNDRange(k, r);
  std::vector<int> out(static_cast<std::size_t>(w) * h);
  q.enqueueRead(*buf, out.data(), out.size() * sizeof(int));
  for (int v : out) EXPECT_EQ(v, 1);
}

TEST(OclRuntime, WorkItemIdentityFieldsConsistent) {
  Context ctx;
  auto program = ctx.buildProgram(R"(
typedef struct { long gid[3]; long gsz[3]; long lid[3]; long lsz[3];
                 long wg[3]; long nwg[3]; } lifta_wi_ctx;
extern "C" void identity_check(void** args, const lifta_wi_ctx* c) {
  int* bad = (int*)args[0];
  for (int d = 0; d < 3; ++d) {
    if (c->gid[d] != c->wg[d] * c->lsz[d] + c->lid[d]) *bad = 1;
    if (c->nwg[d] * c->lsz[d] != c->gsz[d]) *bad = 1;
  }
}
)");
  Kernel k(program, "identity_check");
  auto buf = ctx.allocate(sizeof(int));
  k.setArg(0, buf);
  CommandQueue q(ctx);
  q.enqueueNDRange(k, NDRange::linear(256, 32));
  int bad = 0;
  q.enqueueRead(*buf, &bad, sizeof bad);
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace lifta::ocl
