// Unit tests for the interval engine and symbolic bounds prover.
#include "analysis/interval.hpp"

#include <gtest/gtest.h>

namespace lifta::analysis {
namespace {

using arith::Expr;

Expr v(const char* name) { return Expr::var(name); }

TEST(Interval, NumericIntervalOfBoundedVar) {
  Prover p;
  p.setDomain("x", {Expr(2), Expr(5)});
  auto iv = p.numericInterval(v("x") + Expr(1));
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->lo, 3);
  EXPECT_EQ(iv->hi, 6);
  EXPECT_TRUE(iv->exact);
}

TEST(Interval, DivisionFollowsCTruncation) {
  Prover p;
  p.setDomain("a", {Expr(-7), Expr(-7)});
  auto q = p.numericInterval(v("a") / Expr(2));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->lo, -3);  // C truncation: -7/2 == -3, not -4
  EXPECT_EQ(q->hi, -3);
  // The Mod interval is conservative (it widens to the full remainder
  // range) but must contain the true C value -7 % 2 == -1.
  auto r = p.numericInterval(v("a") % Expr(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(r->lo, -1);
  EXPECT_GE(r->hi, -1);
}

TEST(Interval, ConcreteDomainDecidesBothWays) {
  Prover p;
  p.setDomain("x", {Expr(2), Expr(5)});
  EXPECT_EQ(p.proveGE0(v("x") - Expr(2)).proof, Proof::Yes);
  auto no = p.proveGE0(v("x") - Expr(6));
  EXPECT_EQ(no.proof, Proof::No);
  EXPECT_TRUE(no.exact);  // witness: any x in [2,5]
  // proveGE0 is universal: x - 4 is negative for x in {2,3}, so this is a
  // proven violation too, not an Unknown.
  auto partial = p.proveGE0(v("x") - Expr(4));
  EXPECT_EQ(partial.proof, Proof::No);
  EXPECT_TRUE(partial.exact);
  // A variable with no registered domain is genuinely undecidable.
  EXPECT_EQ(p.proveGE0(v("free")).proof, Proof::Unknown);
}

TEST(Interval, SymbolicLoopDomain) {
  Prover p;
  p.setDomain("i", {Expr(0), v("n") - Expr(1)});
  p.assumeAtLeast("n", 0);
  EXPECT_EQ(p.proveGE0(v("i")).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(v("n") - Expr(1) - v("i")).proof, Proof::Yes);
  // i = 0 violates i - 1 >= 0: universal proof obligation fails.
  EXPECT_EQ(p.proveGE0(v("i") - Expr(1)).proof, Proof::No);
  // i + 1 walks past the end: proven violation with an exact witness (i at
  // its upper endpoint).
  auto r = p.proveGE0(v("n") - Expr(1) - (v("i") + v("n")));
  EXPECT_EQ(r.proof, Proof::No);
  EXPECT_TRUE(r.exact);
}

TEST(Interval, InexactDomainNeverYieldsExactNo) {
  Prover p;
  p.setDomain("x", {Expr(0), v("n") - Expr(1), /*exact=*/false});
  p.assumeAtLeast("n", 0);
  auto r = p.proveGE0(Expr(-1) - v("x"));
  EXPECT_EQ(r.proof, Proof::No);
  EXPECT_FALSE(r.exact);  // no attainable witness may be claimed
}

TEST(Interval, MinMaxCaseSplit) {
  Prover p;
  p.setDomain("x", {Expr(0), Expr(9)});
  EXPECT_EQ(p.proveGE0(arith::min(v("x"), Expr(5))).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(Expr(9) - arith::max(v("x"), Expr(5))).proof,
            Proof::Yes);
  auto r = p.proveGE0(arith::min(v("x"), Expr(5)) - Expr(10));
  EXPECT_EQ(r.proof, Proof::No);
}

TEST(Interval, ModIdentityRange) {
  Prover p;
  p.setDomain("i", {Expr(0), v("n") - Expr(1)});
  p.assumeAtLeast("n", 0);
  // 0 <= i <= n-1 makes i % n just i.
  EXPECT_EQ(p.proveGE0(v("n") - Expr(1) - (v("i") % v("n"))).proof,
            Proof::Yes);
  // i % 4 lies in [0, 3] whenever i >= 0.
  EXPECT_EQ(p.proveGE0(Expr(3) - (v("i") % Expr(4))).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(v("i") % Expr(4)).proof, Proof::Yes);
}

TEST(Interval, DivEliminationKeepsBounds) {
  Prover p;
  p.setDomain("i", {Expr(0), v("n") - Expr(1)});
  p.assumeAtLeast("n", 0);
  // i / 4 stays within [0, i] for i >= 0.
  EXPECT_EQ(p.proveGE0(v("i") / Expr(4)).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(v("n") - Expr(1) - v("i") / Expr(4)).proof,
            Proof::Yes);
}

TEST(Interval, VertexSubstitutionMultilinear) {
  // The flattened 2D index i*nx + j with i in [0,ny-1], j in [0,nx-1] stays
  // inside [0, nx*ny - 1]; linear interval reasoning alone cannot show the
  // upper bound because i*nx couples two symbols.
  Prover p;
  p.setDomain("i", {Expr(0), v("ny") - Expr(1)});
  p.setDomain("j", {Expr(0), v("nx") - Expr(1)});
  p.assumeAtLeast("nx", 0);
  p.assumeAtLeast("ny", 0);
  const Expr idx = v("i") * v("nx") + v("j");
  EXPECT_EQ(p.proveGE0(idx).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(v("nx") * v("ny") - Expr(1) - idx).proof, Proof::Yes);
  // The top corner (i = ny-1, j = nx-1) gives idx = nx*ny - 1, violating
  // the off-by-one bound: vertex substitution finds the witness.
  EXPECT_EQ(p.proveGE0(v("nx") * v("ny") - Expr(2) - idx).proof, Proof::No);
}

TEST(Interval, NonNegativeFactsEnableStrideProofs) {
  Prover p;
  p.assumeAtLeast("nx", 0);
  p.assumeAtLeast("ny", 0);
  EXPECT_EQ(p.proveGE0(v("nx") * v("ny") - Expr(1)).proof, Proof::Unknown);
  // Nonempty-range facts nx >= 1, ny >= 1 make the stride provably positive.
  p.assumeNonNegative(v("nx") - Expr(1));
  p.assumeNonNegative(v("ny") - Expr(1));
  EXPECT_EQ(p.proveGE0(v("nx") * v("ny") - Expr(1)).proof, Proof::Yes);
}

TEST(Interval, OrderingFactBridgesTwoSymbols) {
  // segStart values lie in [0, cells - segW]; together with j in
  // [0, segW - 1] the sum stays below cells. The fact cells - segW >= 0 is
  // not var-shaped — it must flow through the ordering rewrite.
  Prover p;
  p.setDomain("s", {Expr(0), v("cells") - v("segW"), /*exact=*/false});
  p.setDomain("j", {Expr(0), v("segW") - Expr(1)});
  p.assumeAtLeast("cells", 0);
  p.assumeAtLeast("segW", 0);
  p.assumeNonNegative(v("cells") - v("segW"));
  const Expr idx = v("s") + v("j");
  EXPECT_EQ(p.proveGE0(idx).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(v("cells") - Expr(1) - idx).proof, Proof::Yes);
}

TEST(Interval, DefinitionsResolveBeforeProving) {
  Prover p;
  p.setDomain("x", {Expr(0), Expr(5)});
  p.define("y", v("x") + Expr(1));
  EXPECT_EQ(p.proveGE0(v("y")).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(Expr(6) - v("y")).proof, Proof::Yes);
  // y reaches 6 at x = 5, so 5 - y >= 0 has a proven counterexample.
  EXPECT_EQ(p.proveGE0(Expr(5) - v("y")).proof, Proof::No);
}

TEST(Interval, PositiveAndNonZero) {
  Prover p;
  p.setDomain("x", {Expr(1), v("n")});
  p.assumeAtLeast("n", 0);
  EXPECT_EQ(p.provePositive(v("x")).proof, Proof::Yes);
  EXPECT_EQ(p.proveNonZero(v("x")), Proof::Yes);
  EXPECT_NE(p.proveNonZero(v("x") - Expr(1)), Proof::Yes);
  // Strictly negative values are nonzero too.
  p.setDomain("m", {Expr(-4), Expr(-2)});
  EXPECT_EQ(p.proveNonZero(v("m")), Proof::Yes);
}

TEST(Interval, AffineDecompositionHelpers) {
  const Expr e = Expr(3) * v("g") + v("b") * v("n") + Expr(7);
  auto dec = affineIn(e, "g");
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->first, Expr(3));
  EXPECT_EQ(dec->second, v("b") * v("n") + Expr(7));
  EXPECT_FALSE(affineIn(v("g") * v("g"), "g").has_value());
  EXPECT_TRUE(divisibleBy(v("n") * v("b") + Expr(2) * v("n"), v("n")));
  EXPECT_FALSE(divisibleBy(v("n") * v("b") + Expr(2), v("n")));
  EXPECT_TRUE(divisibleBy(Expr(4) * v("b") + Expr(8), Expr(2)));
  EXPECT_TRUE(isPolynomial(e));
  EXPECT_FALSE(isPolynomial(v("a") / v("b")));
}

TEST(Interval, DivModAtTheSaturationBoundary) {
  // Domains at the kIntMin/kIntMax rails (which the engine treats as
  // -inf/+inf): every Div/Mod answer must stay sound — contain the true C
  // value — without wrapping, and never produce an exact "No" from a
  // saturated endpoint.
  Prover p;
  p.setDomain("x", {Expr(Prover::kIntMax - 3), Expr(Prover::kIntMax)});
  auto q = p.numericInterval(v("x") / Expr(2));
  ASSERT_TRUE(q.has_value());
  EXPECT_LE(q->lo, (Prover::kIntMax - 3) / 2);
  EXPECT_GE(q->hi, Prover::kIntMax / 2);
  // Doubling pushes past the rail: the interval saturates rather than wraps,
  // so x*2 - x stays provably nonnegative and x*2 + 1 is not proven < 0.
  EXPECT_EQ(p.proveGE0(v("x") * Expr(2) - v("x")).proof, Proof::Yes);
  EXPECT_NE(p.proveGE0(Expr(0) - (v("x") * Expr(2))).proof, Proof::Yes);

  Prover n;
  n.setDomain("y", {Expr(Prover::kIntMin), Expr(Prover::kIntMin + 7)});
  auto qn = n.numericInterval(v("y") / Expr(-1));
  ASSERT_TRUE(qn.has_value());
  // -kIntMin fits in int64 (the rails are INT64_MIN/4, INT64_MAX/4), so the
  // classic INT64_MIN/-1 overflow cannot occur inside the engine; the upper
  // endpoint either carries the exact negation or saturates at the +inf
  // rail, never wraps negative.
  EXPECT_GE(qn->hi, Prover::kIntMax);
  EXPECT_LE(qn->lo, -(Prover::kIntMin + 7));
  auto rn = n.numericInterval(v("y") % Expr(8));
  ASSERT_TRUE(rn.has_value());
  // Sound containment of the true C remainder (negative for negative y).
  EXPECT_LE(rn->lo, Prover::kIntMin % 8);
  EXPECT_GE(rn->hi, Prover::kIntMin % 8);
}

TEST(Interval, NegativeStrideAffineTerms) {
  // Reverse traversal idx = (n-1) - i over i in [0, n-1]: the negative
  // stride must prove in range on both sides, and affineIn must expose the
  // -1 coefficient the race detector keys on.
  Prover p;
  p.setDomain("i", {Expr(0), v("n") - Expr(1)});
  p.assumeAtLeast("n", 0);
  const Expr idx = v("n") - Expr(1) - v("i");
  EXPECT_EQ(p.proveGE0(idx).proof, Proof::Yes);
  EXPECT_EQ(p.proveGE0(v("n") - Expr(1) - idx).proof, Proof::Yes);
  auto dec = affineIn(idx, "i");
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->first, Expr(-1));
  // Strided variant -3*i + 3*(n-1): still nonnegative, still divisible by 3.
  const Expr strided = Expr(3) * (v("n") - Expr(1)) - Expr(3) * v("i");
  EXPECT_EQ(p.proveGE0(strided).proof, Proof::Yes);
  EXPECT_TRUE(divisibleBy(strided, Expr(3)));
  // A negative-stride overrun IS a proven violation: idx - n hits -1 at i =
  // n-1... i.e. (n-1)-i ranges below n for every i, so proveGE0(idx - n)
  // must not be Yes.
  EXPECT_NE(p.proveGE0(idx - v("n")).proof, Proof::Yes);
}

TEST(Interval, DifferenceBoundCouplesTwoVariables) {
  // The relational domain of the race pass: g' = g + d with d in [1, G-1].
  Prover p;
  p.setDomain("g", {Expr(0), v("G") - Expr(1)});
  p.assumeAtLeast("G", 1);
  p.assumeDifference("gp", "g", Expr(1), v("G") - Expr(1));
  // Coupled goals become single-variable: gp - g >= 1 and gp > g.
  EXPECT_EQ(p.proveGE0(v("gp") - v("g") - Expr(1)).proof, Proof::Yes);
  EXPECT_EQ(p.proveNonZero(v("gp") - v("g")), Proof::Yes);
  // Scaled by a stride the difference stays provably nonzero — the
  // disjointness fact `2*gp + c` vs `2*g + c` needs.
  EXPECT_EQ(p.proveNonZero(Expr(2) * v("gp") - Expr(2) * v("g")), Proof::Yes);
  // The bound is inexact by design: violations inside the band must never
  // come back as exact "No" witnesses.
  const auto r = p.proveGE0(v("g") - v("gp"));
  if (r.proof == Proof::No) {
    EXPECT_FALSE(r.exact);
  }
}

TEST(Interval, DifferenceBoundDoesNotLeakToUnrelatedVars) {
  Prover p;
  p.setDomain("g", {Expr(0), Expr(7)});
  p.assumeDifference("gp", "g", Expr(1), Expr(7));
  // 'other' has no difference bound: goals about it stay undecided.
  EXPECT_EQ(p.proveGE0(v("other") - v("g")).proof, Proof::Unknown);
  // And gp alone (not as a difference) still inherits g's band: gp = g + d
  // with g in [0,7], d in [1,7] gives gp in [1,14].
  EXPECT_EQ(p.proveGE0(v("gp") - Expr(1)).proof, Proof::Yes);
  EXPECT_NE(p.proveGE0(v("gp") - Expr(15)).proof, Proof::Yes);
}

TEST(Interval, PolyDivideExactAndRemainder) {
  // Exact: (6*a*b + 2*b) / (2*b) == 3*a + 1, remainder 0.
  auto qr = polyDivide(Expr(6) * v("a") * v("b") + Expr(2) * v("b"),
                       Expr(2) * v("b"));
  ASSERT_TRUE(qr.has_value());
  EXPECT_EQ(qr->first, Expr(3) * v("a") + Expr(1));
  EXPECT_EQ(qr->second, Expr(0));
  // Mixed: the constant is split Euclideanly, 3 == 2*1 + 1.
  auto mixed = polyDivide(Expr(4) * v("a") + Expr(3), Expr(2));
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->first, Expr(2) * v("a") + Expr(1));
  EXPECT_EQ(mixed->second, Expr(1));
  // Degree shortfall: b / b^2 is all remainder.
  auto deg = polyDivide(v("b"), v("b") * v("b"));
  ASSERT_TRUE(deg.has_value());
  EXPECT_EQ(deg->first, Expr(0));
  EXPECT_EQ(deg->second, v("b"));
  // Out of scope: zero or multi-monomial divisors, non-polynomials.
  EXPECT_FALSE(polyDivide(v("a"), Expr(0)).has_value());
  EXPECT_FALSE(polyDivide(v("a"), v("a") + Expr(1)).has_value());
  EXPECT_FALSE(polyDivide(v("a") / v("b"), v("b")).has_value());
}

}  // namespace
}  // namespace lifta::analysis
