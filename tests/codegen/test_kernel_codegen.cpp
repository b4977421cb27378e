// Golden-ish tests for the kernel code generator: each of the paper's new
// primitives (Table I) must generate the code the paper shows, modulo
// whitespace and generated-name suffixes.
#include "codegen/kernel_codegen.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "ir/typecheck.hpp"

namespace lifta::codegen {
namespace {

using namespace lifta::ir;
using memory::KernelDef;

arith::Expr N() { return arith::Expr::var("N"); }

std::string flat(const std::string& s) { return collapseWhitespace(s); }

TEST(Codegen, SimpleMapAddsToOut) {
  KernelDef def;
  def.name = "add1";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {a, n};
  def.body = mapGlb(lambda({x}, x + litFloat(1.0f)), a);
  // Pin the optimizer off: this test asserts the paper's literal
  // grid-stride shape (the optimized schedule is covered in
  // test_codegen_opt.cpp).
  CodegenOptions paperForm;
  paperForm.optimize = false;
  const auto k = generateKernel(def, paperForm);
  EXPECT_TRUE(contains(k.source, "extern \"C\""));
  EXPECT_TRUE(contains(k.source, "void add1(void** lifta_args"));
  EXPECT_TRUE(contains(flat(k.body), "out[g_0] = (A[g_0] + 1.0f);"));
  EXPECT_TRUE(contains(flat(k.body),
                       "for (long g_0 = get_global_id(ctx, 0); g_0 < N; g_0 "
                       "+= get_global_size(ctx, 0))"));
  // Input is const, output is not.
  EXPECT_TRUE(contains(k.body, "const real* A"));
  EXPECT_TRUE(contains(k.body, "real* out"));
}

TEST(Codegen, ZipGetGeneratesPaperViewExample) {
  // fun(A, B => mapSeq(p => p.get(0) + p.get(1)) o zip(A,B)) from §III-A:
  // the generated access must read A[i] and B[i].
  KernelDef def;
  def.name = "zipsum";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto b = param("B", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto p = param("p", nullptr);
  def.params = {a, b, n};
  def.body = mapSeq(lambda({p}, get(p, 0) + get(p, 1)), zip({a, b}));
  const auto k = generateKernel(def);
  EXPECT_TRUE(contains(flat(k.body), "out[i_0] = (A[i_0] + B[i_0]);"));
}

TEST(Codegen, ConcatWritesAtAccumulatedOffsets) {
  // Table I Concat row: Concat(Map(add2, A), Map(mul3, B)) generates two
  // loops, the second writing at offset N1.
  KernelDef def;
  def.name = "cat";
  auto a = param("A", Type::array(Type::float_(), arith::Expr::var("N1")));
  auto b = param("B", Type::array(Type::float_(), arith::Expr::var("N2")));
  auto n1 = param("N1", Type::int_());
  auto n2 = param("N2", Type::int_());
  auto x = param("x", nullptr);
  auto y = param("y", nullptr);
  def.params = {a, b, n1, n2};
  def.body = concat({mapSeq(lambda({x}, x + litFloat(2.0f)), a),
                     mapSeq(lambda({y}, y * litFloat(3.0f)), b)});
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "out[i_0] = (A[i_0] + 2.0f);"));
  EXPECT_TRUE(contains(body, "out[(N1 + i_1)] = (B[i_1] * 3.0f);"));
}

TEST(Codegen, SkipGeneratesNoCodeOnlyOffset) {
  // Table I Skip row: Concat(Skip<T>(n), Array(1,2,3)) writes out[n..n+2]
  // and emits nothing for the skip itself.
  KernelDef def;
  def.name = "skipped";
  auto n = param("n", Type::int_());
  def.params = {n};
  def.body = concat({skip(Type::int_(), n),
                     mapSeq(lambda({param("v", nullptr)}, litInt(0)),
                            iota(3))});
  // Overwrite map body to write the element value itself: use iota values.
  auto v = param("v", nullptr);
  def.body = concat({skip(Type::int_(), n),
                     mapSeq(lambda({v}, v + litInt(1)), iota(3))});
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "out[(i_0 + n)] = (i_0 + 1);"));
  // No loop over `n` anywhere: the skip is a pure no-op.
  EXPECT_FALSE(contains(body, "< n;"));
}

TEST(Codegen, ArrayConsRepeatsElement) {
  // Table I ArrayCons row: Map(id, ArrayCons(6,3)) → for (...) out[i] = 6.
  KernelDef def;
  def.name = "repeat";
  auto v = param("v", nullptr);
  def.params = {};
  def.body = mapSeq(lambda({v}, v), arrayCons(litInt(6), 3));
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "for (long i_0 = 0; i_0 < 3; ++i_0)"));
  EXPECT_TRUE(contains(body, "out[i_0] = 6;"));
}

TEST(Codegen, WriteToScalarUpdatesInPlace) {
  // The §IV-B motivating loop:
  //   for i: idx = indices[i]; grid[idx] = f(grid[idx]);
  KernelDef def;
  def.name = "inplace";
  auto grid = param("grid", Type::array(Type::float_(), N()));
  auto idxs = param("indices", Type::array(Type::int_(), arith::Expr::var("M")));
  auto n = param("N", Type::int_());
  auto m = param("M", Type::int_());
  auto i = param("i", nullptr);
  auto idx = param("idx", nullptr);
  def.params = {grid, idxs, n, m};
  def.body = mapGlb(
      lambda({i}, let(idx, i,
                      writeTo(arrayAccess(grid, idx),
                              arrayAccess(grid, idx) * litFloat(2.0f)))),
      idxs);
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "const int idx = indices[g_0];"));
  EXPECT_TRUE(contains(body, "grid[idx] = (grid[idx] * 2.0f);"));
  // No output buffer: the kernel acts purely by side effect.
  EXPECT_FALSE(contains(body, "out"));
  EXPECT_TRUE(contains(k.body, "real* __restrict grid"));  // writable
  EXPECT_TRUE(contains(k.body, "const int* __restrict indices"));
}

TEST(Codegen, CollapsedConcatSkipWritesSingleElement) {
  // The paper's §IV-B2 listing: Map(idx => WriteTo(input,
  //   Concat(Skip(idx), f(ArrayCons(input[idx],1)), Skip(len-1-idx))))
  // must generate exactly one store per iteration: input[idx] = f(input[idx]).
  KernelDef def;
  def.name = "collapsed";
  auto input = param("input", Type::array(Type::float_(), N()));
  auto idxs = param("indices", Type::array(Type::int_(), arith::Expr::var("M")));
  auto n = param("N", Type::int_());
  auto m = param("M", Type::int_());
  auto i = param("i", nullptr);
  auto idx = param("idx", nullptr);
  def.params = {input, idxs, n, m};
  auto updated = arrayAccess(input, idx) + litFloat(1.0f);
  def.body = mapGlb(
      lambda({i},
             let(idx, i,
                 concat({skip(Type::float_(), idx),
                         mapSeq(lambda({param("e", nullptr)},
                                       updated),
                                arrayCons(arrayAccess(input, idx), 1)),
                         skip(Type::float_(), n - litInt(1) - idx)}))),
      idxs);
  def.outAliasParam = "input";
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "const int idx = indices[g_0];"));
  EXPECT_TRUE(contains(body, "input[idx] = (input[idx] + 1.0f);"));
  EXPECT_FALSE(contains(body, "out"));
}

TEST(Codegen, CollapsedConcatWritesOneWindowPerWorkItem) {
  // A window per work item through Concat(Skip(b), MapSeq(iota(W)),
  // Skip(N-W-b)) inside a MapGlb, a write shape no shipped kernel has: the
  // collapsed destination is offset by the loaded window start and the
  // inner map is a real loop, not the one-element straight-line form of
  // Listing 7.
  KernelDef def;
  def.name = "windows";
  const arith::Expr w = arith::Expr::var("W");
  auto src = param("src", Type::array(Type::float_(), N()));
  auto dst = param("dst", Type::array(Type::float_(), N()));
  auto starts =
      param("starts", Type::array(Type::int_(), arith::Expr::var("S")));
  auto n = param("N", Type::int_());
  auto sp = param("S", Type::int_());
  auto wp = param("W", Type::int_());
  auto s = param("s", nullptr);
  auto b = param("b", nullptr);
  auto j = param("j", nullptr);
  def.params = {src, dst, starts, n, sp, wp};
  def.body = mapGlb(
      lambda({s},
             let(b, s,
                 concat({skip(Type::float_(), b),
                         mapSeq(lambda({j}, arrayAccess(src, b + j) *
                                                litFloat(2.0f)),
                                iota(w)),
                         skip(Type::float_(), n - wp - b)}))),
      starts);
  def.outAliasParam = "dst";
  for (const bool optimize : {false, true}) {
    CodegenOptions opts;
    opts.optimize = optimize;
    const auto k = generateKernel(def, opts);
    const std::string body = flat(k.body);
    EXPECT_TRUE(contains(body, "const int b = starts[g_0];")) << body;
    EXPECT_TRUE(contains(body, "for (long i_1 = 0; i_1 < W; ++i_1)")) << body;
    EXPECT_TRUE(contains(body, "dst[(b + i_1)] = (src[(b + i_1)] * 2.0f);"))
        << body;
    EXPECT_FALSE(contains(body, "out")) << body;
  }
}

TEST(Codegen, ReduceSeqAccumulates) {
  KernelDef def;
  def.name = "total";
  auto a = param("A", Type::array(Type::float_(), 8));
  auto acc = param("acc", nullptr);
  auto e = param("e", nullptr);
  auto one = param("one", nullptr);
  def.params = {a};
  def.body = mapSeq(lambda({one}, reduceSeq(lambda({acc, e}, acc + e),
                                            litFloat(0.0f), a)),
                    iota(1));
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "real acc_0 = 0.0f;"));
  EXPECT_TRUE(contains(body, "acc_0 = (acc_0 + A[r_1]);"));
  EXPECT_TRUE(contains(body, "out[0] = acc_0;"));
}

TEST(Codegen, PrivateArrayLetMaterializes) {
  // val g = MapSeq(b => G[b*M + i]) << Iota(3) — gathers into a private
  // array, like Listing 4's _g1[MB].
  KernelDef def;
  def.name = "gather";
  auto g = param("G", Type::array(Type::float_(), arith::Expr::var("M") * 3));
  auto m = param("M", Type::int_());
  auto i = param("i", nullptr);
  auto b = param("b", nullptr);
  auto gp = param("_g", nullptr);
  auto e2 = param("e2", nullptr);
  def.params = {g, m};
  def.body = mapGlb(
      lambda({i}, let(gp,
                      mapSeq(lambda({b}, arrayAccess(g, b * m + i)), iota(3)),
                      mapSeq(lambda({e2}, e2 * litFloat(2.0f)), gp))),
      iota(arith::Expr::var("M")));
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "real _g[3];"));
  EXPECT_TRUE(contains(body, "_g[i_1] ="));
  EXPECT_TRUE(contains(body, "_g[i_2] * 2.0f"));
}

TEST(Codegen, TupleOfWritesEmitsAllStores) {
  // The FD-MM shape: Tuple(WriteTo(next[idx], a), WriteTo(v1[idx], b)).
  KernelDef def;
  def.name = "multi";
  auto nxt = param("next", Type::array(Type::float_(), N()));
  auto v1 = param("v1", Type::array(Type::float_(), N()));
  auto idxs = param("indices", Type::array(Type::int_(), arith::Expr::var("M")));
  auto n = param("N", Type::int_());
  auto m = param("M", Type::int_());
  auto i = param("i", nullptr);
  auto idx = param("idx", nullptr);
  def.params = {nxt, v1, idxs, n, m};
  def.body = mapGlb(
      lambda({i},
             let(idx, i,
                 makeTuple({writeTo(arrayAccess(nxt, idx), litFloat(1.0f)),
                            writeTo(arrayAccess(v1, idx), litFloat(2.0f))}))),
      idxs);
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "next[idx] = 1.0f;"));
  EXPECT_TRUE(contains(body, "v1[idx] = 2.0f;"));
  EXPECT_TRUE(contains(k.body, "real* __restrict next"));
  EXPECT_TRUE(contains(k.body, "real* __restrict v1"));
}

TEST(Codegen, DoublePrecisionTypedefAndLiterals) {
  KernelDef def;
  def.name = "dbl";
  auto a = param("A", Type::array(Type::double_(), N()));
  auto n = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {a, n};
  def.body = mapGlb(lambda({x}, x * litFloat(0.5, ScalarKind::Double)), a);
  def.real = ScalarKind::Double;
  const auto k = generateKernel(def);
  EXPECT_TRUE(contains(k.source, "typedef double real;"));
  EXPECT_TRUE(contains(flat(k.body), "(A[g_0] * 0.5)"));
  EXPECT_FALSE(contains(k.body, "0.5f"));
}

TEST(Codegen, UserFunInlinedIntoPreamble) {
  KernelDef def;
  def.name = "uf";
  auto fn = std::make_shared<UserFun>(UserFun{
      "add2", {"a"}, {Type::float_()}, Type::float_(), "return a + 2.0f;"});
  auto a = param("A", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {a, n};
  def.body = mapGlb(lambda({x}, call(fn, {x})), a);
  const auto k = generateKernel(def);
  EXPECT_TRUE(contains(k.source,
                       "static inline real add2(real a) { return a + 2.0f; }"));
  EXPECT_TRUE(contains(flat(k.body), "out[g_0] = add2(A[g_0]);"));
}

TEST(Codegen, SelectGeneratesTernary) {
  KernelDef def;
  def.name = "sel";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {a, n};
  def.body = mapGlb(
      lambda({x}, select(binary(BinOp::Gt, x, litFloat(0.0f)), x,
                         litFloat(0.0f))),
      a);
  const auto k = generateKernel(def);
  EXPECT_TRUE(contains(flat(k.body),
                       "out[g_0] = ((A[g_0] > 0.0f) ? A[g_0] : 0.0f);"));
}

TEST(Codegen, PadSlideStencilGeneratesGuardedLoads) {
  // The simple 1D stencil of §III-B: map(reduce(add), slide(3,1,pad(1,1,A))).
  KernelDef def;
  def.name = "stencil1d";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto w = param("w", nullptr);
  auto acc = param("acc", nullptr);
  auto e = param("e", nullptr);
  def.params = {a, n};
  def.body = mapGlb(
      lambda({w}, reduceSeq(lambda({acc, e}, acc + e), litFloat(0.0f), w)),
      slide(3, 1, pad(1, 1, PadMode::Zero, a)));
  const auto k = generateKernel(def);
  const std::string body = flat(k.body);
  EXPECT_TRUE(contains(body, "0 <= "));      // pad guard present
  EXPECT_TRUE(contains(body, ": (real)0)")); // zero padding value
}

TEST(Codegen, DuplicateLetNamesRejected) {
  KernelDef def;
  def.name = "dup";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto x = param("x", nullptr);
  auto t1 = param("t", nullptr);
  auto t2 = param("t", nullptr);
  def.params = {a, n};
  def.body = mapGlb(
      lambda({x}, let(t1, x + litFloat(1.0f),
                      let(t2, x + litFloat(2.0f), t1 + t2))),
      a);
  EXPECT_THROW(generateKernel(def), CodegenError);
}

TEST(Codegen, MapWrgRejectedByBarrierFreeGenerator) {
  KernelDef def;
  def.name = "wrg";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto n = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {a, n};
  def.body = map(MapKind::Wrg, 0, lambda({x}, x), a);
  EXPECT_THROW(generateKernel(def), CodegenError);
}

// The JIT compiles kernels as C++; a system header in the preamble (the old
// <math.h> pulled in <cmath>) costs every cold compile ~150 ms. Real
// min/max call compiler builtins instead (run in test_runtime.cpp).
TEST(Codegen, PreambleIncludesNoHeaders) {
  for (const auto real : {ScalarKind::Float, ScalarKind::Double}) {
    EXPECT_FALSE(contains(kernelPreamble(real), "#include"))
        << (real == ScalarKind::Float ? "float" : "double");
  }
}

TEST(Codegen, PreambleDefinesWorkItemHelpers) {
  const std::string p = kernelPreamble(ScalarKind::Float);
  EXPECT_TRUE(contains(p, "typedef float real;"));
  EXPECT_TRUE(contains(p, "get_global_id"));
  EXPECT_TRUE(contains(p, "get_global_size"));
  EXPECT_TRUE(contains(p, "lifta_wi_ctx"));
}

}  // namespace
}  // namespace lifta::codegen
