// Translation-validation tests: the store-summary symbolic evaluator, the
// provenEqual normalization (Div/Mod discharge via polynomial division), and
// the end-to-end guarantee that every shipped kernel validates cleanly under
// every optimizer configuration. Seeded miscompile mutations that the
// checker must catch live in test_mutations.cpp.
#include "analysis/equiv.hpp"

#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/error.hpp"
#include "geophys/lift_kernels.hpp"
#include "ir/expr.hpp"
#include "lift_acoustics/kernels.hpp"
#include "memory/kernel_def.hpp"

namespace lifta::analysis {
namespace {

using arith::Expr;

Expr v(const char* name) { return Expr::var(name); }

std::vector<memory::KernelDef> shippedKernels() {
  return {
      lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFusedFiKernel(ir::ScalarKind::Double),
      lift_acoustics::liftVolumeStencil3DKernel(ir::ScalarKind::Double),
      lift_acoustics::liftVolumeRunsKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFdMmKernel(ir::ScalarKind::Double, 3),
      lift_acoustics::liftFiMmClassKernel(ir::ScalarKind::Double, 5),
      lift_acoustics::liftFiMmClassKernel(ir::ScalarKind::Double, 4),
      lift_acoustics::liftFiMmClassMixedKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFdMmClassKernel(ir::ScalarKind::Double, 3, 5),
      lift_acoustics::liftFdMmClassKernel(ir::ScalarKind::Double, 3, 4),
      lift_acoustics::liftFdMmClassMixedKernel(ir::ScalarKind::Double, 3),
      geophys::liftEmEzKernel(ir::ScalarKind::Double),
      geophys::liftEmHKernel(ir::ScalarKind::Double),
      geophys::liftEmHxKernel(ir::ScalarKind::Double),
      geophys::liftEmHyKernel(ir::ScalarKind::Double),
  };
}

// --- end-to-end validation over the shipped kernels -------------------------

TEST(Equiv, ShippedKernelsValidateClean) {
  for (const auto& def : shippedKernels()) {
    const Report r = validateTranslation(def);
    EXPECT_EQ(r.count(Severity::Error), 0u) << def.name << ":\n" << r.toText();
    EXPECT_EQ(r.count(Severity::Warning), 0u)
        << def.name << ":\n" << r.toText();
  }
}

TEST(Equiv, ShippedKernelsGenerateUnderEveryOptimizerConfig) {
  // Both generator configurations must emit every shipped kernel: the
  // paper form skips the gate, and the optimized form must pass it.
  for (const auto& def : shippedKernels()) {
    for (const bool optimize : {false, true}) {
      codegen::CodegenOptions o;
      o.optimize = optimize;
      EXPECT_NO_THROW(codegen::generateKernel(def, o))
          << def.name << " optimize=" << optimize;
    }
  }
}

TEST(Equiv, SummariesAlignStoreForStore) {
  for (const auto& def : shippedKernels()) {
    const KernelSummary ref = summarizeKernel(def, /*optimized=*/false);
    const KernelSummary opt = summarizeKernel(def, /*optimized=*/true);
    ASSERT_EQ(ref.stores.size(), opt.stores.size()) << def.name;
    ASSERT_FALSE(ref.stores.empty()) << def.name;
    for (std::size_t i = 0; i < ref.stores.size(); ++i) {
      EXPECT_EQ(ref.stores[i].buffer, opt.stores[i].buffer) << def.name;
      // The origin cites the pre-optimization store as written.
      EXPECT_EQ(ref.stores[i].context.rfind("store ", 0), 0u) << def.name;
    }
  }
}

TEST(Equiv, VerifyGateRespectsTheKillSwitch) {
  struct Restore {
    ~Restore() { setVerifyEnabled(true); }
  } restore;
  setVerifyEnabled(false);
  for (const auto& def : shippedKernels()) {
    EXPECT_NO_THROW(verifyTranslation(def));
  }
  setVerifyEnabled(true);
  EXPECT_NO_THROW(
      verifyTranslation(lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double)));
}

// --- provenEqual: the equality oracle ---------------------------------------

/// Loop domain i in [0, n-1] with n a nonnegative size parameter.
Prover loopProver() {
  Prover p;
  p.setDomain("i", {Expr(0), v("n") - Expr(1)});
  p.assumeAtLeast("n", 0);
  return p;
}

TEST(Equiv, ProvenEqualAcceptsStructuralEquality) {
  const Prover p = loopProver();
  EXPECT_TRUE(provenEqual(p, v("i") + Expr(3), Expr(3) + v("i")));
  EXPECT_TRUE(provenEqual(p, v("i") * Expr(2), v("i") + v("i")));
}

TEST(Equiv, ProvenEqualDischargesExactDivision) {
  const Prover p = loopProver();
  // (4*i)/4 == i: polynomial division gives quotient i, remainder 0, and the
  // domain proves 4*i >= 0.
  EXPECT_TRUE(provenEqual(p, arith::div(v("i") * Expr(4), Expr(4)), v("i")));
  // (2*i + 1)/2 == i: remainder 1 is provably in [0, 2).
  EXPECT_TRUE(provenEqual(
      p, arith::div(v("i") * Expr(2) + Expr(1), Expr(2)), v("i")));
}

TEST(Equiv, ProvenEqualDischargesDivModRecomposition) {
  const Prover p = loopProver();
  // i == 3*(i/3) + i%3 — the decomposition simplifyIndex introduces when it
  // splits a flat index into (row, col).
  const Expr recomposed =
      Expr(3) * arith::div(v("i"), Expr(3)) + arith::mod(v("i"), Expr(3));
  EXPECT_TRUE(provenEqual(p, v("i"), recomposed));
}

TEST(Equiv, ProvenEqualRejectsOffByOne) {
  const Prover p = loopProver();
  EXPECT_FALSE(provenEqual(p, v("i") + Expr(1), v("i")));
  // (2*i + 3)/2 == i + 1, not i.
  EXPECT_FALSE(provenEqual(
      p, arith::div(v("i") * Expr(2) + Expr(3), Expr(2)), v("i")));
  EXPECT_TRUE(provenEqual(
      p, arith::div(v("i") * Expr(2) + Expr(3), Expr(2)), v("i") + Expr(1)));
}

TEST(Equiv, ProvenEqualIsSoundOnUnknownDivisors) {
  // i/m vs i/k with unrelated divisors: the quotients are opaque and must
  // not be conflated...
  Prover p = loopProver();
  p.assumeAtLeast("m", 1);
  p.assumeAtLeast("k", 1);
  EXPECT_FALSE(provenEqual(p, arith::div(v("i"), v("m")),
                           arith::div(v("i"), v("k"))));
  // ...while the *same* opaque quotient cancels structurally on both sides.
  const Expr q = arith::div(v("i"), v("m"));
  EXPECT_TRUE(provenEqual(p, q + v("i"), v("i") + q));
}

TEST(Equiv, PolyDivideSplitsQuotientAndRemainder) {
  // 6*i*j + 3*i + 2*j divided by 3*i: quotient 2*j + 1, remainder 2*j.
  const Expr num =
      Expr(6) * v("i") * v("j") + Expr(3) * v("i") + Expr(2) * v("j");
  const auto qr = polyDivide(num, Expr(3) * v("i"));
  ASSERT_TRUE(qr.has_value());
  EXPECT_TRUE(qr->first == Expr(2) * v("j") + Expr(1))
      << qr->first.toString();
  EXPECT_TRUE(qr->second == Expr(2) * v("j")) << qr->second.toString();
  // Non-monomial divisors are out of scope.
  EXPECT_FALSE(polyDivide(num, v("i") + Expr(1)).has_value());
}

// --- compareSummaries diagnostics -------------------------------------------

/// mapGlb(g => A[g+1] * 2, iota(N)) over an N+1 array: one store per work
/// item with a nontrivial address and value.
memory::KernelDef shiftKernel() {
  using namespace lifta::ir;
  memory::KernelDef def;
  def.name = "shift_scale";
  const Expr n = v("N");
  auto a = param("A", Type::array(Type::float_(), n + Expr(1)));
  auto np = param("N", Type::int_());
  auto g = param("g", nullptr);
  def.params = {a, np};
  def.body = mapGlb(
      lambda({g}, arrayAccess(a, g + litInt(1)) * litFloat(2.0f)), iota(n));
  return def;
}

TEST(Equiv, CompareSummariesAcceptsHonestOptimization) {
  const auto def = shiftKernel();
  const Report r = compareSummaries(summarizeKernel(def, false),
                                    summarizeKernel(def, true));
  EXPECT_EQ(r.count(Severity::Error), 0u) << r.toText();
}

TEST(Equiv, CompareSummariesFlagsAddressDrift) {
  const auto def = shiftKernel();
  const KernelSummary ref = summarizeKernel(def, false);
  KernelSummary opt = summarizeKernel(def, true);
  ASSERT_FALSE(opt.stores.empty());
  opt.stores[0].address = opt.stores[0].address + Expr(1);
  const Report r = compareSummaries(ref, opt);
  ASSERT_GE(r.count(Severity::Error), 1u);
  bool cited = false;
  for (const auto& d : r.diagnostics) {
    if (d.pass == PassId::Equiv && !d.origin.empty() &&
        d.origin.rfind("store ", 0) == 0) {
      cited = true;  // the diagnostic names the pre-opt store
    }
  }
  EXPECT_TRUE(cited) << r.toText();
}

TEST(Equiv, DescribeValRendersTheTree) {
  const auto def = shiftKernel();
  const KernelSummary ref = summarizeKernel(def, false);
  ASSERT_FALSE(ref.stores.empty());
  const std::string desc = describeVal(ref.stores[0].value);
  EXPECT_NE(desc.find("A["), std::string::npos) << desc;
}

}  // namespace
}  // namespace lifta::analysis
