// Guard speculation over a proven sub-range (DESIGN.md §6, §10).
//
// A chunk-scheduled MapGlb whose body stores `select(c, t, f)` emits the
// arms as `dst[g] = c ? t : f`. When every load in `t` reads `A[g + k]` for a
// loop-invariant k from an array of loop-invariant extent E, each load is in
// bounds for g in [-k, E - k); on the intersection of those ranges with
// [0, len) the optimizer may evaluate `t` unconditionally (`dst[g] = t; if
// (!c) dst[g] = f;`), which removes the control flow that keeps the loop
// scalar. Each cell still stores `c ? t : f`. The offsets and extents may be
// constants (a specialization baked the room's dimensions) or kernel scalar
// parameters the kernel reads at run time; the bounds of the range are then
// index expressions the kernel evaluates before its loop.
//
// The codegen emitter and the optimized translation-validation summarizer
// both walk the map body once with a SpeculationProbe attached, record what
// they see, and call speculationRange() — the same decision from the same
// observations, as with proveGuardSides. compareSummaries then re-proves
// every speculated load in range from the reference walk, so the split
// points are validated, not trusted.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arith/expr.hpp"
#include "ir/expr.hpp"
#include "memory/kernel_def.hpp"
#include "memory/specialization.hpp"

namespace lifta::analysis {

/// The Select a map body (`lambda->body`) stores, when guard speculation
/// may apply to it: the body is scalar, opens with any number of lets and
/// ends in a select whose `t` arm is safe to evaluate for a cell whose
/// result is discarded — no user function, reduction or store, no integer
/// division and no real-to-integer cast (the operations that can trap or
/// have effects). Null otherwise.
const ir::Node* speculationCandidate(const ir::ExprPtr& body);

/// What one walk of a candidate map body observed.
struct SpeculationProbe {
  const ir::Node* select = nullptr;  // the candidate's Select
  int arm = -1;  // 0, 1, 2 while walking c, t, f; -1 elsewhere

  struct Load {
    int arm = -1;
    std::string buffer;
    arith::Expr address;  // as emitted (substituted and simplified)
    arith::Expr extent;   // the buffer's flat element count (substituted)
    bool guarded = false;  // wrapped in a zero-pad guard
  };
  /// Memory loads made while walking the select's arms.
  std::vector<Load> loads;
  /// Let-bound locals whose value is the map's loop index as read from an
  /// Iota element (name -> index expression).
  std::map<std::string, arith::Expr> iotaLets;

  /// Records a load made at the current arm (no-op outside the arms).
  void noteLoad(std::string buffer, arith::Expr address, arith::Expr extent,
                bool guarded);
};

/// The middle range of a map's index domain on which every load in `t` is
/// proven in bounds: iv >= every `lower` term and iv < every `upper` term.
/// Terms whose difference is a constant are merged, so a range over
/// constants holds one term each.
struct SpeculationRange {
  std::vector<arith::Expr> lower;
  std::vector<arith::Expr> upper;  // exclusive
};

/// The max (or, with max=false, the min) of `terms`, folded left; constant
/// terms fold to a constant.
arith::Expr foldBound(const std::vector<arith::Expr>& terms, bool max);

/// The operands of a nested max (or min) chain, the inverse of foldBound;
/// {e} for any other expression.
std::vector<arith::Expr> boundTerms(const arith::Expr& e, bool max);

/// The int scalar parameters of `def` that `spec` does not bake: the
/// integers a specialized kernel still reads at run time.
std::set<std::string> runtimeInts(const memory::KernelDef& def,
                                  const memory::Specialization& spec);

/// Decides guard speculation for the map over `iv` in [0, len). Callers
/// only ask when the map stores into a buffer that is not a kernel
/// parameter — the implicit output or a private array, which the map body
/// cannot load, so the unconditional store of `t` feeds no read — and only
/// for a specialized kernel. `invariants` names the integer scalars the
/// kernel reads at run time (runtimeInts). Returns the
/// intersection of [0, len) with every `t` load's in-bounds range, or
/// nullopt — the map then keeps one guarded loop — when: `len` mentions a
/// name outside `invariants`; `t` loads nothing; a `t` load is guarded, or
/// its extent or its offset from `iv` (once Iota lets are expanded) is not
/// loop-invariant; `f` loads anything; or the range is constant and empty.
std::optional<SpeculationRange> speculationRange(
    const SpeculationProbe& probe, const std::string& iv,
    const arith::Expr& len, const std::set<std::string>& invariants);

/// The three ranges one work item's chunk [lo, hi) splits into around the
/// proven range [mlo, mhi): the guarded parts [lo, min(hi, mlo)) and
/// [midHi, hi), and the speculated middle [midLo, midHi). The emitter
/// prints exactly these formulas as C; they cover [lo, hi) once for any
/// inputs, empty parts included (DESIGN.md §10).
struct ChunkSplit {
  std::int64_t edgeHi;  // end of the lower guarded part
  std::int64_t midLo;   // max(lo, mlo)
  std::int64_t midHi;   // max(midLo, min(hi, mhi)); start of the upper part
};
ChunkSplit splitChunk(std::int64_t lo, std::int64_t hi, std::int64_t mlo,
                      std::int64_t mhi);

}  // namespace lifta::analysis
