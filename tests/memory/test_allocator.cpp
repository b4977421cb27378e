// The memory-allocation stage: when does a kernel get a fresh output buffer,
// and when does WriteTo / host-level aliasing suppress it (paper §IV-B).
#include "memory/allocator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ir/typecheck.hpp"

namespace lifta::memory {
namespace {

using namespace lifta::ir;

arith::Expr N() { return arith::Expr::var("N"); }

KernelDef simpleMapKernel() {
  KernelDef def;
  def.name = std::string("k");
  auto in = param("A", Type::array(Type::float_(), N()));
  auto nParam = param("N", Type::int_());
  auto x = param("x", nullptr);
  def.params = {in, nParam};
  def.body = mapGlb(lambda({x}, x + litFloat(1.0f)), in);
  typecheck(def.body);
  return def;
}

TEST(Allocator, PureMapGetsOutputBuffer) {
  const auto plan = planMemory(simpleMapKernel());
  ASSERT_TRUE(plan.hasOutBuffer);
  ASSERT_EQ(plan.args.size(), 3u);
  EXPECT_EQ(plan.args.back().name, "out");
  EXPECT_TRUE(plan.args.back().writable);
  EXPECT_FALSE(plan.args[0].writable);
  EXPECT_TRUE(plan.args[0].isArray);
  EXPECT_FALSE(plan.args[1].isArray);
}

TEST(Allocator, OutAliasSuppressesOutputBuffer) {
  auto def = simpleMapKernel();
  def.outAliasParam = std::string("A");
  const auto plan = planMemory(def);
  EXPECT_FALSE(plan.hasOutBuffer);
  ASSERT_EQ(plan.args.size(), 2u);
  EXPECT_TRUE(plan.args[0].writable);  // aliased param is written
}

TEST(Allocator, UnknownAliasThrows) {
  auto def = simpleMapKernel();
  def.outAliasParam = std::string("Z");
  EXPECT_THROW(planMemory(def), CodegenError);
}

TEST(Allocator, ScalarAliasThrows) {
  auto def = simpleMapKernel();
  def.outAliasParam = std::string("N");
  EXPECT_THROW(planMemory(def), CodegenError);
}

TEST(Allocator, EffectOnlyKernelHasNoOut) {
  KernelDef def;
  def.name = "k";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto idxs = param("I", Type::array(Type::int_(), N()));
  auto i = param("i", nullptr);
  def.params = {a, idxs};
  // Map(i => WriteTo(A[i], 0)) << I — all effects, no value.
  def.body = mapGlb(
      lambda({i}, writeTo(arrayAccess(a, i), litFloat(0.0f))), idxs);
  typecheck(def.body);
  const auto plan = planMemory(def);
  EXPECT_FALSE(plan.hasOutBuffer);
  EXPECT_TRUE(plan.args[0].writable);
  EXPECT_FALSE(plan.args[1].writable);
}

TEST(Allocator, IsEffectOnlyRecognizesTuplesAndLets) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto i = param("i", Type::int_());
  auto w1 = writeTo(arrayAccess(a, i), litFloat(1.0f));
  auto w2 = writeTo(arrayAccess(a, i), litFloat(2.0f));
  EXPECT_TRUE(isEffectOnly(makeTuple({w1, w2})));
  auto p = param("t", nullptr);
  EXPECT_TRUE(isEffectOnly(let(p, litInt(1), w1)));
  EXPECT_FALSE(isEffectOnly(makeTuple({w1, litFloat(3.0f)})));
}

TEST(Allocator, CollectsWriteDestinationsThroughAccess) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto b = param("B", Type::array(Type::float_(), N()));
  auto i = param("i", Type::int_());
  auto e = makeTuple({writeTo(arrayAccess(a, i), litFloat(1.0f)),
                      writeTo(b, b)});
  std::set<std::string> written;
  collectWriteDestinations(e, written);
  EXPECT_EQ(written.size(), 2u);
  EXPECT_TRUE(written.count("A"));
  EXPECT_TRUE(written.count("B"));
}

TEST(Allocator, ScalarBodyWithoutEffectsThrows) {
  KernelDef def;
  def.name = "k";
  def.params = {};
  def.body = litFloat(1.0f);
  ir::typecheck(def.body);
  EXPECT_THROW(planMemory(def), CodegenError);
}

}  // namespace
}  // namespace lifta::memory
