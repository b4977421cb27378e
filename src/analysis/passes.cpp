#include "analysis/passes.hpp"

#include <set>
#include <utility>
#include <vector>

#include "analysis/interval.hpp"
#include "analysis/simplify.hpp"

namespace lifta::analysis {

using arith::Expr;

namespace {

constexpr const char* kPrimeSuffix = "$p";

/// Should this variable be renamed on the "other work-item" side of a race
/// pair? Loop variables and pad guards take per-iteration values; atoms whose
/// load position depends on the work item or a loop hold different values on
/// the other side. Size parameters and fixed-position atoms are shared.
bool shouldPrime(const std::string& v, const KernelAccessInfo& info) {
  if (info.domains.count(v)) return true;
  auto it = info.atoms.find(v);
  if (it != info.atoms.end()) {
    return it->second.positionUsesWorkItem || it->second.positionUsesLoopVars;
  }
  return false;
}

/// Builds the prover for one kernel: loop/pad domains, let definitions, size
/// assumptions and contract-derived atom bounds — plus primed twins of every
/// per-work-item variable, so race pairs can reason about two work items at
/// once with one prover.
Prover buildProver(const KernelAccessInfo& info, const AnalysisOptions& opts) {
  Prover p;
  for (const auto& [v, d] : info.domains) {
    p.setDomain(v, d);
    p.setDomain(v + kPrimeSuffix, d);
    // Every range is assumed nonempty: a domain is registered because some
    // loop (or guard) introduces it, and when a range is empty the enclosed
    // accesses never execute, so conclusions about them hold vacuously.
    // These facts carry e.g. nx >= 1 into stride reasoning (nx*ny - 1 >= 0).
    p.assumeNonNegative(d.hi - d.lo);
  }
  for (const auto& [v, e] : info.defs) p.define(v, e);
  for (const auto& v : info.sizeVars) p.assumeAtLeast(v, 0);
  for (const auto& [name, origin] : info.atoms) {
    auto it = opts.contracts.find(origin.buffer);
    if (it == opts.contracts.end()) continue;
    const BufferContract& c = it->second;
    if (c.valueLo && c.valueHi) {
      // Contract ranges describe possible values, not attained extremes:
      // inexact, so no error-severity verdict may rest on them.
      Domain d{*c.valueLo, *c.valueHi, false};
      p.setDomain(name, d);
      if (shouldPrime(name, info)) p.setDomain(name + kPrimeSuffix, d);
      // A loaded value exists whenever the access executes, so the
      // contract's range is nonempty (e.g. cells - segW >= 0).
      p.assumeNonNegative(d.hi - d.lo);
    } else if (c.valueLo && c.valueLo->isConst()) {
      p.assumeAtLeast(name, c.valueLo->constValue());
      if (shouldPrime(name, info)) {
        p.assumeAtLeast(name + kPrimeSuffix, c.valueLo->constValue());
      }
    }
  }
  return p;
}

Expr primed(const Expr& e, const KernelAccessInfo& info) {
  std::map<std::string, Expr> subst;
  for (const auto& v : e.freeVars()) {
    if (shouldPrime(v, info)) subst.emplace(v, Expr::var(v + kPrimeSuffix));
  }
  return subst.empty() ? e : e.substitute(subst);
}

Expr unprimed(const Expr& e) {
  std::map<std::string, Expr> subst;
  for (const auto& v : e.freeVars()) {
    if (v.size() > 2 && v.compare(v.size() - 2, 2, kPrimeSuffix) == 0) {
      subst.emplace(v, Expr::var(v.substr(0, v.size() - 2)));
    }
  }
  return subst.empty() ? e : e.substitute(subst);
}

std::vector<std::string> primedAtomsIn(const Expr& e,
                                       const KernelAccessInfo& info,
                                       bool stripPrime) {
  std::vector<std::string> out;
  for (const auto& v : e.freeVars()) {
    std::string base = v;
    if (stripPrime) {
      if (v.size() <= 2 || v.compare(v.size() - 2, 2, kPrimeSuffix) != 0) {
        continue;
      }
      base = v.substr(0, v.size() - 2);
    }
    if (info.atoms.count(base) && shouldPrime(base, info)) {
      out.push_back(base);
    }
  }
  return out;
}

}  // namespace

// --- bounds pass ------------------------------------------------------------

void boundsPass(const KernelAccessInfo& info, const AnalysisOptions& opts,
                Report& report) {
  Prover p = buildProver(info, opts);
  for (const auto& a : info.accesses) {
    Prover::Result lower = p.proveGE0(a.index);
    Prover::Result upper = p.proveGE0(a.extent - Expr(1) - a.index);
    if (lower.proof == Proof::Yes && upper.proof == Proof::Yes) {
      // The codegen optimizer may emit simplifyIndex(index) in place of the
      // original expression; its rewrites are licensed by exactly the facts
      // this prover holds, so the simplified form must stay provably in
      // range too. A failure here means the optimizer would emit an index
      // the verifier can no longer stand behind — treat it as an error.
      const Expr simplified = simplifyIndex(p.resolve(a.index), p);
      if (!(simplified == p.resolve(a.index)) &&
          (p.proveGE0(simplified).proof != Proof::Yes ||
           p.proveGE0(a.extent - Expr(1) - simplified).proof != Proof::Yes)) {
        Diagnostic d;
        d.severity = Severity::Error;
        d.pass = PassId::Bounds;
        d.kernel = info.kernelName;
        d.node = a.buffer;
        d.indexExpr = simplified.toString();
        d.origin = a.context + " (pre-opt index: " +
                   p.resolve(a.index).toString() + ")";
        d.message = a.context +
                    ": optimizer-simplified index loses the bounds proof "
                    "(original form proves in range; simplified form does "
                    "not, extent " + a.extent.toString() + ")";
        report.add(std::move(d));
      }
      continue;
    }

    const bool provenBad = (lower.proof == Proof::No && lower.exact) ||
                           (upper.proof == Proof::No && upper.exact);
    const char* side = (lower.proof != Proof::Yes && upper.proof != Proof::Yes)
                           ? "either end of"
                       : (lower.proof != Proof::Yes) ? "the lower bound of"
                                                     : "the upper bound of";
    Diagnostic d;
    d.pass = PassId::Bounds;
    d.kernel = info.kernelName;
    d.node = a.buffer;
    d.indexExpr = p.resolve(a.index).toString();
    if (provenBad) {
      if (!a.guarded && !a.padGuarded) {
        d.severity = Severity::Error;
        d.message = a.context + ": proven out of bounds (extent " +
                    a.extent.toString() + ")";
      } else {
        d.severity = Severity::Info;
        d.message = a.context +
                    ": out of bounds when its guard is ignored; only "
                    "reachable under a data-dependent guard (extent " +
                    a.extent.toString() + ")";
      }
    } else if (a.guarded || a.padGuarded) {
      d.severity = Severity::Info;
      d.message = a.context + ": cannot prove " + side +
                  " the access in range, but it is guarded (extent " +
                  a.extent.toString() + ")";
    } else {
      d.severity = Severity::Warning;
      d.message = a.context + ": cannot prove " + side +
                  " the access in range (extent " + a.extent.toString() +
                  "); add a buffer contract if the index is data-dependent";
    }
    report.add(std::move(d));
  }
}

// --- race pass --------------------------------------------------------------

namespace {

struct RaceChecker {
  const KernelAccessInfo& info;
  const AnalysisOptions& opts;
  Report& report;
  Prover prover;
  std::set<std::string> emitted;  // dedup identical findings

  RaceChecker(const KernelAccessInfo& i, const AnalysisOptions& o, Report& r)
      : info(i), opts(o), report(r), prover(buildProver(i, o)) {}

  void emit(Severity sev, const Access& a1, const Access& a2,
            const std::string& why, const Expr& idx) {
    Diagnostic d;
    d.severity = sev;
    d.pass = PassId::Race;
    d.kernel = info.kernelName;
    d.node = a1.buffer;
    d.message = a1.context + " vs " + a2.context + ": " + why;
    d.indexExpr = idx.toString();
    std::string key = severityName(sev) + d.message;
    if (emitted.insert(std::move(key)).second) report.add(std::move(d));
  }

  void provenRace(const Access& a1, const Access& a2, const std::string& why,
                  const Expr& idx, bool isWW) {
    const bool unguarded = !a1.guarded && !a2.guarded;
    std::string what = isWW ? "data race: " : "read/write hazard: ";
    emit(unguarded ? Severity::Error : Severity::Warning, a1, a2, what + why,
         idx);
  }

  void unknown(const Access& a1, const Access& a2, const std::string& why,
               const Expr& idx, bool isWW) {
    std::string what = isWW ? "cannot prove work-item writes disjoint: "
                            : "cannot prove read does not alias another "
                              "work-item's write: ";
    emit(Severity::Warning, a1, a2, what + why, idx);
  }

  bool yes(const Prover::Result& r) const { return r.proof == Proof::Yes; }

  /// Rule R (relational): model the second work item as g' = g + d with d in
  /// [1, G-1], and symmetrically g = g' + d. If the index difference is
  /// provably nonzero under both orderings, no two *distinct* work items can
  /// collide — covering pairs whose strides differ, which every non-
  /// relational rule bails out on. Sound: the substitution overapproximates
  /// the reachable (g, g') pairs, and only Yes verdicts are consumed.
  bool relationalDisjoint(const Expr& idx1, const Expr& idx2) {
    const std::string& g = *info.wiVar;
    const std::string gp = g + kPrimeSuffix;
    const Expr gMax = info.wiCount - Expr(1);
    for (bool forward : {true, false}) {
      Prover rel = prover;
      rel.assumeDifference(forward ? gp : g, forward ? g : gp, Expr(1), gMax);
      if (rel.proveNonZero(idx1 - idx2) != Proof::Yes) return false;
    }
    return true;
  }

  void checkPair(const Access& a1, const Access& a2, bool isWW) {
    const std::string& g = *info.wiVar;
    const std::string gp = g + kPrimeSuffix;

    Expr idx1 = prover.resolve(a1.index);
    Expr idx2 = primed(prover.resolve(a2.index), info);

    if (!isPolynomial(idx1) || !isPolynomial(idx2)) {
      unknown(a1, a2, "index is not affine", idx1, isWW);
      return;
    }
    auto dec1 = affineIn(idx1, g);
    auto dec2 = affineIn(idx2, gp);
    if (!dec1 || !dec2) {
      unknown(a1, a2, "index is not affine in the work-item id", idx1, isWW);
      return;
    }
    if (!(dec1->first == dec2->first)) {
      if (relationalDisjoint(idx1, idx2)) return;
      unknown(a1, a2, "the two accesses use different work-item strides",
              idx1, isWW);
      return;
    }
    const Expr s = dec1->first;
    const Expr D = dec1->second - dec2->second;

    // Opaque scatter indices: both sides must go through the same single
    // atom with coefficient 1; an injectivity contract then separates them.
    auto atoms1 = primedAtomsIn(dec1->second, info, /*stripPrime=*/false);
    auto atoms2 = primedAtomsIn(dec2->second, info, /*stripPrime=*/true);
    if (!atoms1.empty() || !atoms2.empty()) {
      checkAtomPair(a1, a2, isWW, s, *dec1, *dec2, atoms1, atoms2, idx1);
      return;
    }

    // Rule A: identical per-work-item offset.
    if (D == Expr(0)) {
      if (prover.proveNonZero(s) == Proof::Yes) return;  // injective in g
      if (s == Expr(0)) {
        provenRace(a1, a2,
                   "the index does not depend on the work-item id; every "
                   "work item touches the same element",
                   idx1, isWW);
        return;
      }
      unknown(a1, a2, "cannot prove the work-item stride nonzero", idx1, isWW);
      return;
    }

    // Rule B: no work-item dependence at all.
    if (s == Expr(0)) {
      if (prover.proveNonZero(D) == Proof::Yes) return;
      if (unprimed(D) == Expr(0)) {
        provenRace(a1, a2,
                   "the index does not depend on the work-item id; "
                   "different work items cover the same index range",
                   idx1, isWW);
        return;
      }
      unknown(a1, a2, "index offsets may coincide across work items", idx1,
              isWW);
      return;
    }

    // Rule C: |D| <= |s| - 1 keeps distinct work items in distinct stride
    // windows (the stencil pattern: s = nx*ny, |D| bounded by the tile).
    for (const Expr& sign : {s, Expr(0) - s}) {
      if (yes(prover.proveGE0(sign - Expr(1))) &&
          yes(prover.proveGE0(sign - Expr(1) - D)) &&
          yes(prover.proveGE0(sign - Expr(1) + D))) {
        return;
      }
    }

    // Rule D: every term of D divisible by c with s*(G-1) <= c-1 means the
    // work-item contribution can never bridge a multiple of c (the batched
    // state-matrix pattern: index = b*numB + g).
    {
      std::set<std::string> tried;
      for (const auto& v : D.freeVars()) {
        if (!prover.lookupDomain(v)) continue;  // only loop-style variables
        auto af = affineIn(D, v);
        if (!af) continue;
        const Expr c = af->first;
        if (c == Expr(0) || !tried.insert(c.toString()).second) continue;
        if (divisibleBy(D, c) && yes(prover.proveGE0(s - Expr(1))) &&
            yes(prover.proveGE0(c - Expr(1) -
                                s * (info.wiCount - Expr(1))))) {
          return;
        }
      }
    }

    // Rule F: complete range separation — one access's whole index range
    // sits strictly above the other's (two Concat parts written from the
    // same kernel). Proving strict order over all work-item pairs is
    // stronger than needed (it includes the g' == g case) and hence sound.
    if (yes(prover.proveGE0(idx2 - idx1 - Expr(1))) ||
        yes(prover.proveGE0(idx1 - idx2 - Expr(1)))) {
      return;
    }

    // Rule E: fully-constant stride and offset — decide exactly.
    if (s.isConst() && D.isConst()) {
      const std::int64_t sv = s.constValue();
      const std::int64_t dv = D.constValue();
      if (dv % sv != 0) return;  // s*d = -D has no integer solution
      const std::int64_t d = -dv / sv;
      if (d != 0) {
        if (info.wiCount.isConst() &&
            std::abs(d) > info.wiCount.constValue() - 1) {
          return;  // the colliding work item does not exist
        }
        provenRace(a1, a2,
                   "work items " + g + " and " + g + (d > 0 ? "+" : "") +
                       std::to_string(d) + " touch the same element",
                   idx1, isWW);
        return;
      }
    }

    if (relationalDisjoint(idx1, idx2)) return;
    unknown(a1, a2, "work-item index windows may overlap", idx1, isWW);
  }

  void checkAtomPair(const Access& a1, const Access& a2, bool isWW,
                     const Expr& s, const std::pair<Expr, Expr>& dec1,
                     const std::pair<Expr, Expr>& dec2,
                     const std::vector<std::string>& atoms1,
                     const std::vector<std::string>& atoms2,
                     const Expr& idx1) {
    if (atoms1.size() != 1 || atoms2.size() != 1 || atoms1[0] != atoms2[0] ||
        !(s == Expr(0))) {
      unknown(a1, a2, "index depends on values loaded from memory", idx1,
              isWW);
      return;
    }
    const std::string& atom = atoms1[0];
    const OpaqueOrigin& origin = info.atoms.at(atom);

    auto af1 = affineIn(dec1.second, atom);
    auto af2 = affineIn(dec2.second, atom + kPrimeSuffix);
    if (!af1 || !af2 || !(af1->first == Expr(1)) ||
        !(af2->first == Expr(1))) {
      unknown(a1, a2, "index depends non-trivially on a loaded value", idx1,
              isWW);
      return;
    }

    auto it = opts.contracts.find(origin.buffer);
    const BufferContract* c =
        it == opts.contracts.end() ? nullptr : &it->second;
    if (!c || !c->injective) {
      unknown(a1, a2,
              "scatter through '" + origin.buffer +
                  "' which has no injectivity contract",
              idx1, isWW);
      return;
    }
    // Distinct work items must load from distinct positions for injectivity
    // to separate the values.
    auto pos = affineIn(origin.position, *info.wiVar);
    if (origin.positionUsesLoopVars || !pos ||
        prover.proveNonZero(pos->first) != Proof::Yes) {
      unknown(a1, a2,
              "loaded scatter index position is not one-per-work-item", idx1,
              isWW);
      return;
    }

    const Expr delta = af1->second - af2->second;
    if (delta == Expr(0)) return;  // distinct atoms, identical offsets
    // Stride-window rule (the fissioned FD-MM state pattern,
    // index = atom + branch*numB with atom = origPos[g] in [0, numB-1]):
    // when every term of delta is divisible by some m and the contract
    // bounds the loaded values to a window narrower than m, a collision
    // atom + delta == atom' would force atom ≡ atom' (mod m) with
    // |atom - atom'| < m, i.e. atom == atom' — impossible across distinct
    // work items once injectivity separates their loads.
    if (c->valueLo && c->valueHi) {
      const Expr span = *c->valueHi - *c->valueLo;
      std::set<std::string> tried;
      for (const auto& v : delta.freeVars()) {
        auto af = affineIn(delta, v);
        if (!af) continue;
        const Expr m = af->first;
        if (m == Expr(0) || !tried.insert(m.toString()).second) continue;
        if (divisibleBy(delta, m) &&
            yes(prover.proveGE0(m - Expr(1) - span))) {
          return;
        }
      }
    }
    unknown(a1, a2,
            "offsets around the loaded scatter index may overlap across "
            "work items",
            idx1, isWW);
  }
};

}  // namespace

void racePass(const KernelAccessInfo& info, const AnalysisOptions& opts,
              Report& report) {
  if (!info.wiVar) return;  // fully sequential kernel
  if (info.wiCount.isConst() && info.wiCount.constValue() <= 1) return;

  std::vector<const Access*> writes;
  std::vector<const Access*> reads;
  for (const auto& a : info.accesses) {
    if (a.isPrivate) continue;
    (a.isWrite ? writes : reads).push_back(&a);
  }
  if (writes.empty()) return;

  if (info.glbMapCount > 1) {
    Diagnostic d;
    d.severity = Severity::Warning;
    d.pass = PassId::Race;
    d.kernel = info.kernelName;
    d.message =
        "kernel has multiple MapGlb nests with global writes; race analysis "
        "supports a single work-item dimension";
    report.add(std::move(d));
    return;
  }

  RaceChecker checker(info, opts, report);
  for (std::size_t i = 0; i < writes.size(); ++i) {
    for (std::size_t j = i; j < writes.size(); ++j) {
      if (writes[i]->buffer != writes[j]->buffer) continue;
      checker.checkPair(*writes[i], *writes[j], /*isWW=*/true);
    }
  }
  for (const Access* r : reads) {
    for (const Access* w : writes) {
      if (r->buffer != w->buffer) continue;
      checker.checkPair(*r, *w, /*isWW=*/false);
    }
  }
}

Report analyzeKernelDef(const memory::KernelDef& def,
                        const AnalysisOptions& opts) {
  Report report;
  report.subject = def.name;
  KernelAccessInfo info = collectAccesses(def);
  boundsPass(info, opts, report);
  racePass(info, opts, report);
  for (const auto& note : info.notes) {
    Diagnostic d;
    d.severity = Severity::Info;
    d.pass = PassId::Bounds;
    d.kernel = info.kernelName;
    d.message = note;
    report.add(std::move(d));
  }
  return report;
}

}  // namespace lifta::analysis
