// Translation validation for the codegen optimizer (Alive2-style, scoped to
// this pipeline): both the unoptimized and the optimized emission of a kernel
// are run through a symbolic evaluator that produces a *store summary* — the
// ordered list of (buffer, address, value) effects the generated C program
// performs, with addresses and guard conditions as arith::Expr and values as
// small operation trees. The two summaries are then compared store-by-store:
//
//   * addresses must be provably equal under the kernel's loop domains and
//     size-parameter facts (an independent re-derivation: polynomial division
//     discharges the Div/Mod rewrites of simplifyIndex rather than trusting
//     them),
//   * every pad-guard side the optimizer dropped must be re-proven redundant
//     from the *reference* (as-written) guard expression,
//   * value trees must match in lockstep (same operators, same operand
//     order, provably-equal integer subterms).
//
//   * every load a speculated store evaluates unconditionally (guard
//     speculation, analysis/speculate.hpp) must be re-proven in bounds over
//     the speculated domain, constant or symbolic, from the reference
//     walk's as-written address.
//
// Validated passes: index simplification, guard elimination and guard
// speculation — the rewrites that change what the generated program
// computes or which loads it performs. Trusted (argued once, not re-checked
// per kernel): arith canonical constructors, CSE and hoisting (pure
// naming), the chunk schedule and its speculation split (loop-geometry
// coverage), and restrict qualification (ABI non-aliasing). See DESIGN.md
// §10.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/interval.hpp"
#include "analysis/speculate.hpp"
#include "arith/expr.hpp"
#include "memory/kernel_def.hpp"
#include "memory/specialization.hpp"

namespace lifta::analysis {

struct SummaryVal;
using SummaryValPtr = std::shared_ptr<const SummaryVal>;

/// One zero-Pad guard wrapped around a loaded value: the load happens iff
/// `0 <= adjusted < size`, otherwise the value is the pad zero. The
/// optimized summarizer marks sides the emitter's prover discharged (the
/// emitted code omits them); the checker re-proves every dropped side.
struct ValGuard {
  arith::Expr adjusted;
  arith::Expr size;
  bool droppedLower = false;
  bool droppedUpper = false;
};

/// A node of the canonical value tree. Scalar C code the emitter prints is
/// abstracted to: opaque literals (Lit), tracked integer expressions
/// (Index), memory reads (Load), pad-guard wrappers (Guard) and everything
/// else as an operator application (Apply) whose tag includes enough
/// identity (operator token, callee name, reduction loop variables) that a
/// lockstep structural walk distinguishes genuinely different computations.
struct SummaryVal {
  enum class Kind { Lit, Index, Load, Guard, Apply };
  Kind kind = Kind::Lit;
  std::string text;      // Lit: literal/opaque C text; Apply: operator tag
  arith::Expr index;     // Index: tracked integer value; Load: flat address
  std::string buffer;    // Load: buffer name
  bool speculated = false;  // Load: evaluated even where its result is
                            // discarded (the t arm of a speculated store)
  std::vector<ValGuard> guards;     // Guard only
  std::vector<SummaryValPtr> args;  // Apply operands / Guard inner value
};

/// Guard speculation on a store of select(c, t, f): the emitted code
/// evaluates `t` for every `loopVar` in `domain`, whatever `c` says. The
/// domain's bounds are constants, or max (lo) and min (hi) chains of index
/// expressions over the kernel's run-time scalars.
struct Speculation {
  std::string loopVar;
  Domain domain;
};

/// One memory effect of the generated program, in emission order.
struct StoreSummary {
  std::string buffer;
  arith::Expr address;   // flat element index (simplified when optimized)
  SummaryValPtr value;
  /// The store as written in the source kernel definition (raw, pre-
  /// simplification address) — the origin every diagnostic cites.
  std::string context;
  /// Set by the optimized walk when the emitter speculates this store.
  std::optional<Speculation> speculation;
};

/// The full symbolic-execution result for one kernel × one optimizer mode.
struct KernelSummary {
  std::string kernelName;
  bool optimized = false;
  std::vector<StoreSummary> stores;
  /// Loop-variable domains registered during the walk (iv in [lo, hi],
  /// range nonempty) — the fact base the equivalence checker proves under.
  std::map<std::string, Domain> domains;
  /// Size parameters (nonnegative by construction).
  std::set<std::string> sizeVars;
  /// Integer let-bound locals whose value the index algebra follows
  /// (name -> value); addresses mention them by name.
  std::map<std::string, arith::Expr> letIndex;
  /// Flat element count of every buffer a load may name.
  std::map<std::string, arith::Expr> extents;
};

/// Symbolically evaluates the kernel through the emitter's own IR walk
/// (analysis/walk.hpp): `optimized=false` keeps raw view-resolved
/// addresses and full guards; `optimized=true` applies the
/// simplifyIndex/proveGuardSides pipeline of the optimizing emitter, with
/// the walk's prover. Local naming is deterministic, so two walks over the
/// same IR align store-for-store. Throws CodegenError on IR the emitter
/// would also reject.
KernelSummary summarizeKernel(const memory::KernelDef& def, bool optimized);

/// As above under a constant specialization: every specialized scalar
/// parameter is replaced by its concrete value in both index algebra and
/// value trees, at the points the specializing emitter substitutes it. Substituting a parameter by the value the host binds is a
/// renaming of the environment, so validating spec'd-reference against
/// spec'd-optimized extends the translation-validation gate over the
/// specialization pass itself (DESIGN.md §12).
KernelSummary summarizeKernel(const memory::KernelDef& def, bool optimized,
                              const memory::Specialization& spec);

/// Compares two summaries of the same kernel; every divergence that is not
/// provably semantics-preserving becomes an error-severity PassId::Equiv
/// diagnostic citing the pre-optimization store (`origin`) and the
/// optimized address (`index`). Exposed separately from validateTranslation
/// so tests can seed miscompile mutations into a summary.
Report compareSummaries(const KernelSummary& ref, const KernelSummary& opt);

/// summarize(unoptimized) vs summarize(optimized), compared.
Report validateTranslation(const memory::KernelDef& def);

/// Specialized form: both walks run under `spec`, so the comparison covers
/// constant specialization in addition to simplify/guard elimination.
Report validateTranslation(const memory::KernelDef& def,
                           const memory::Specialization& spec);

/// Codegen-gate form: throws lifta::AnalysisError when validation finds any
/// error-severity diagnostic. No-op when verification is disabled
/// (LIFTA_SKIP_VERIFY / setVerifyEnabled(false)).
void verifyTranslation(const memory::KernelDef& def);

/// Gate form of the specialized validation.
void verifyTranslation(const memory::KernelDef& def,
                       const memory::Specialization& spec);

/// True when `a == b` for every assignment consistent with `p`. Structural
/// equality first; otherwise the difference is normalized (Mod eliminated
/// via x%y == x - y*(x/y); innermost Div nodes replaced by their exact
/// polynomial quotient when the remainder is provably in [0, y) and the
/// operands provably nonnegative, or by an opaque fresh variable so common
/// subterms still cancel) and both `d >= 0` and `-d >= 0` are proven.
bool provenEqual(const Prover& p, const arith::Expr& a, const arith::Expr& b);

/// Compact rendering of a value tree for diagnostics and tests.
std::string describeVal(const SummaryValPtr& v);

}  // namespace lifta::analysis
