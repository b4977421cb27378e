// Translation-validation tests: the store-summary symbolic evaluator, the
// provenEqual normalization (Div/Mod discharge via polynomial division), and
// the end-to-end guarantee that every shipped kernel validates cleanly under
// every optimizer configuration. Seeded miscompile mutations that the
// checker must catch live in test_mutations.cpp.
#include "analysis/equiv.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

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

/// Every shipped kernel: the acoustic ones and the geophysics FDTD2D ones.
std::vector<memory::KernelDef> kernelSubjects() {
  auto defs = lift_acoustics::shippedKernels();
  defs.insert(defs.end(),
              {geophys::liftEmEzKernel(ir::ScalarKind::Double),
               geophys::liftEmHKernel(ir::ScalarKind::Double),
               geophys::liftEmHxKernel(ir::ScalarKind::Double),
               geophys::liftEmHyKernel(ir::ScalarKind::Double)});
  return defs;
}

// --- end-to-end validation over the shipped kernels -------------------------

TEST(Equiv, ShippedKernelsValidateClean) {
  for (const auto& def : kernelSubjects()) {
    const Report r = validateTranslation(def);
    EXPECT_EQ(r.count(Severity::Error), 0u) << def.name << ":\n" << r.toText();
    EXPECT_EQ(r.count(Severity::Warning), 0u)
        << def.name << ":\n" << r.toText();
  }
}

TEST(Equiv, ShippedKernelsGenerateUnderEveryOptimizerConfig) {
  // Both generator configurations must emit every shipped kernel: the
  // paper form skips the gate, and the optimized form must pass it.
  for (const auto& def : kernelSubjects()) {
    for (const bool optimize : {false, true}) {
      codegen::CodegenOptions o;
      o.optimize = optimize;
      EXPECT_NO_THROW(codegen::generateKernel(def, o))
          << def.name << " optimize=" << optimize;
    }
  }
}

TEST(Equiv, SummariesAlignStoreForStore) {
  for (const auto& def : kernelSubjects()) {
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
  for (const auto& def : kernelSubjects()) {
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

/// lift_volume_step's constants on the device_tiered benchmark's box.
memory::Specialization volumeSpec(std::int64_t nx, std::int64_t ny,
                                  std::int64_t nz) {
  memory::Specialization spec;
  spec.ints = {{"nx", nx}, {"nxny", nx * ny}, {"cells", nx * ny * nz}};
  spec.reals = {{"l2", 1.0 / 3.0}};
  return spec;
}

TEST(Equiv, SpecializedVolumeSpeculatesOverTheProvenRange) {
  const auto def = lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double);
  const auto spec = volumeSpec(96, 72, 56);
  const KernelSummary opt = summarizeKernel(def, /*optimized=*/true, spec);
  ASSERT_EQ(opt.stores.size(), 1u);
  const StoreSummary& st = opt.stores[0];
  ASSERT_TRUE(st.speculation.has_value());
  // curr[i - nxny] and curr[i + nxny] bound the range: [nxny, cells - nxny).
  EXPECT_TRUE(st.speculation->domain.lo.isConst(96 * 72));
  EXPECT_TRUE(st.speculation->domain.hi.isConst(96 * 72 * 56 - 96 * 72 - 1));
  // Every load of t is marked; c and f load nothing speculatively.
  std::size_t marked = 0;
  std::function<void(const SummaryValPtr&)> count =
      [&](const SummaryValPtr& v) {
        if (v->kind == SummaryVal::Kind::Load && v->speculated) ++marked;
        for (const auto& a : v->args) count(a);
      };
  count(st.value);
  EXPECT_GE(marked, 8u);  // curr x 7, prev, and nbrs through the let
  const Report r = validateTranslation(def, spec);
  EXPECT_FALSE(r.hasErrors()) << r.toText();

  // Generic kernels keep symbolic offsets: the rewrite does not fire, and
  // the reference walk never speculates.
  EXPECT_FALSE(summarizeKernel(def, true).stores[0].speculation.has_value());
  EXPECT_FALSE(
      summarizeKernel(def, false, spec).stores[0].speculation.has_value());
}

TEST(Equiv, ClassSpecializedVolumeSpeculatesOverASymbolicRange) {
  // The device tier's specialization bakes l2 only (DESIGN.md §12): the
  // offsets +-1, +-nx, +-nxny and the extent cells stay run-time scalars,
  // so the proven range is a max/min of index expressions the kernel
  // evaluates before its loop.
  const auto def = lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double);
  const auto spec = lift_acoustics::classSpecialization(def, 3, 0.5, 1.0 / 3);
  ASSERT_TRUE(spec.ints.empty());
  ASSERT_EQ(spec.reals.size(), 1u);
  const KernelSummary ref = summarizeKernel(def, /*optimized=*/false, spec);
  const KernelSummary opt = summarizeKernel(def, /*optimized=*/true, spec);
  ASSERT_EQ(opt.stores.size(), 1u);
  ASSERT_TRUE(opt.stores[0].speculation.has_value());
  const Domain& d = opt.stores[0].speculation->domain;
  const auto render = [](const std::vector<Expr>& terms) {
    std::vector<std::string> out;
    for (const auto& t : terms) out.push_back(t.toString());
    return out;
  };
  // Every load's own bound; nothing assumes nx or nxny positive, so the
  // range holds for any values the host binds.
  EXPECT_EQ(render(boundTerms(d.lo, true)),
            (std::vector<std::string>{"1", "nx", "(-1 * nx)", "nxny",
                                      "(-1 * nxny)"}));
  EXPECT_EQ(render(boundTerms(d.hi, false)),
            (std::vector<std::string>{"(-2 + cells)", "(-1 + cells + nx)",
                                      "(-1 + cells + (-1 * nx))",
                                      "(-1 + cells + nxny)",
                                      "(-1 + cells + (-1 * nxny))"}));
  // On a grid (1 <= nx <= nxny) that is [nxny, cells - nxny).
  for (const auto& [nx, ny, nz] :
       {std::array<std::int64_t, 3>{96, 72, 56},
        std::array<std::int64_t, 3>{40, 34, 30},
        std::array<std::int64_t, 3>{3, 4, 5}}) {
    const std::map<std::string, std::int64_t> env = {
        {"nx", nx}, {"nxny", nx * ny}, {"cells", nx * ny * nz}};
    EXPECT_EQ(d.lo.evaluate(env), nx * ny);
    EXPECT_EQ(d.hi.evaluate(env), nx * ny * nz - nx * ny - 1);
  }
  const Report r = compareSummaries(ref, opt);
  EXPECT_FALSE(r.hasErrors()) << r.toText();

  // speculation_range_widened on the symbolic range: one cell below the
  // proof is caught.
  KernelSummary widened = opt;
  widened.stores[0].speculation->domain.lo = d.lo - Expr(1);
  EXPECT_TRUE(compareSummaries(ref, widened).hasErrors());
}

/// mapGlb(g => flag[g] > 0 ? t(g) : 0, iota(N)) with B of extent N + 2,
/// specialized to N = 100.
std::optional<Speculation> speculationOf(
    const std::function<ir::ExprPtr(const ir::ExprPtr& b,
                                    const ir::ExprPtr& idx,
                                    const ir::ExprPtr& g)>& t) {
  using namespace lifta::ir;
  const Expr n = Expr::var("N");
  auto flag = param("flag", Type::array(Type::int_(), n));
  auto b = param("B", Type::array(Type::float_(), n + Expr(2)));
  auto idx = param("idx", Type::array(Type::int_(), n));
  auto np = param("N", Type::int_());
  auto g = param("g", nullptr);
  memory::KernelDef def;
  def.name = "speculate_probe";
  def.params = {flag, b, idx, np};
  def.body = mapGlb(
      lambda({g}, select(binary(BinOp::Gt, arrayAccess(flag, g), litInt(0)),
                         t(b, idx, g), litFloat(0.0f))),
      iota(n));
  memory::Specialization spec;
  spec.ints = {{"N", 100}};
  EXPECT_FALSE(validateTranslation(def, spec).hasErrors());
  return summarizeKernel(def, true, spec).stores.at(0).speculation;
}

TEST(Equiv, SpeculationNeedsEveryTLoadAtAConstantOffset) {
  using namespace lifta::ir;
  // B[g - 1] + B[g + 2] over B[N + 2]: in bounds for g in [1, N).
  const auto shifted = speculationOf([](auto b, auto, auto g) {
    return arrayAccess(b, g - litInt(1)) + arrayAccess(b, g + litInt(2));
  });
  ASSERT_TRUE(shifted.has_value());
  EXPECT_TRUE(shifted->domain.lo.isConst(1));
  EXPECT_TRUE(shifted->domain.hi.isConst(99));
  // A gathered address is not the loop index plus a constant.
  EXPECT_FALSE(speculationOf([](auto b, auto idx, auto g) {
                 return arrayAccess(b, arrayAccess(idx, g));
               }).has_value());
  // Integer division could trap on a discarded cell.
  EXPECT_FALSE(speculationOf([](auto b, auto idx, auto g) {
                 return arrayAccess(b, g) *
                        cast(Type::float_(),
                             litInt(8) / arrayAccess(idx, g));
               }).has_value());
  // The fused FI kernel's t arm reads curr/prev at constant offsets too.
  memory::Specialization fused = volumeSpec(20, 18, 16);
  fused.reals["l"] = 0.5;
  fused.reals["beta"] = 0.25;
  const auto fusedDef =
      lift_acoustics::liftFusedFiKernel(ir::ScalarKind::Double);
  EXPECT_TRUE(summarizeKernel(fusedDef, true, fused)
                  .stores[0]
                  .speculation.has_value());
  EXPECT_FALSE(validateTranslation(fusedDef, fused).hasErrors());
}

TEST(Equiv, SpeculationSplitCoversEveryChunkOnce) {
  // The emitter's split of a work item's chunk [lo, hi) around the proven
  // range [mlo, mhi): lower edge [lo, edgeHi), middle [midLo, midHi), upper
  // edge [midHi, hi). Exhaustive over small values, including empty chunks,
  // empty and inverted proven ranges, and chunks beyond the range.
  for (int lo = 0; lo <= 9; ++lo) {
    for (int hi = 0; hi <= 9; ++hi) {
      for (int mlo = -1; mlo <= 10; ++mlo) {
        for (int mhi = -1; mhi <= 10; ++mhi) {
          const ChunkSplit s = splitChunk(lo, hi, mlo, mhi);
          for (int g = -1; g <= 10; ++g) {
            const int covered = (g >= lo && g < s.edgeHi) +
                                (g >= s.midLo && g < s.midHi) +
                                (g >= s.midHi && g < hi);
            const bool inChunk = g >= lo && g < hi;
            ASSERT_EQ(covered, inChunk ? 1 : 0)
                << "g=" << g << " chunk [" << lo << ", " << hi
                << ") range [" << mlo << ", " << mhi << ")";
            // The middle only ever holds proven indices.
            if (g >= s.midLo && g < s.midHi) {
              ASSERT_TRUE(g >= mlo && g < mhi);
            }
          }
        }
      }
    }
  }
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
