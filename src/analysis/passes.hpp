// The kernel-level static analysis passes:
//   * bounds: proves every recorded access within its buffer's extent,
//   * race:   proves scatter writes of distinct work-items disjoint, and
//             flags read/write aliasing a work-item barrier cannot order.
//
// Severity policy (keeps shipped kernels free of error-severity findings):
//   Error   — proven defect on an unguarded access (exact reasoning only)
//   Warning — cannot be proven safe (e.g. scatter through an uncontracted
//             index buffer) or proven defect behind a data guard
//   Info    — unprovable but guarded (a Select condition or zero-Pad guard
//             the prover cannot see through)
#pragma once

#include <map>
#include <optional>
#include <string>

#include "analysis/access.hpp"
#include "analysis/diagnostics.hpp"
#include "arith/expr.hpp"
#include "memory/kernel_def.hpp"

namespace lifta::analysis {

/// Caller-supplied facts about the runtime contents of an input buffer,
/// used to reason about data-dependent (scatter) indices loaded from it.
struct BufferContract {
  std::optional<arith::Expr> valueLo;  // every element >= valueLo
  std::optional<arith::Expr> valueHi;  // every element <= valueHi
  bool injective = false;              // distinct positions, distinct values
};

struct AnalysisOptions {
  std::map<std::string, BufferContract> contracts;  // by buffer (param) name
};

/// Runs bounds + race analysis over one kernel definition.
Report analyzeKernelDef(const memory::KernelDef& def,
                        const AnalysisOptions& opts = {});

/// Pass entry points over pre-collected access info (exposed for tests).
void boundsPass(const KernelAccessInfo& info, const AnalysisOptions& opts,
                Report& report);
void racePass(const KernelAccessInfo& info, const AnalysisOptions& opts,
              Report& report);

}  // namespace lifta::analysis
