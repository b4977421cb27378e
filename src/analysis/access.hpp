// Abstract interpretation of a KernelDef: runs the code generator's own IR
// walk (analysis/walk.hpp), but instead of printing C it records every
// memory access as a symbolic (buffer, flat-index, extent) triple over
// arith::Expr.
//
// Loop structure maps to symbolic variables with domains:
//   * MapGlb's grid-stride variable g covers [0, len-1] (the work-item id for
//     the race detector),
//   * MapSeq / Reduce / ArrayCons loops cover their iteration ranges,
//   * zero-Pad guards become fresh variables over the guarded inner extent
//     (view::resolveSymbolic), so the prover assumes the guard,
//   * opaque integers loaded from buffers (e.g. idx = boundaryIndices[g])
//     become named "atom" variables with recorded provenance, so buffer
//     contracts can later bound them.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "arith/expr.hpp"
#include "memory/kernel_def.hpp"

namespace lifta::analysis {

/// One memory access recorded while abstractly executing a kernel.
struct Access {
  std::string buffer;
  arith::Expr index;        // flat element index into `buffer`
  arith::Expr extent;       // buffer flat element count
  bool isWrite = false;
  bool guarded = false;     // evaluated only under a Select condition
  bool padGuarded = false;  // protected by a zero-Pad range guard
  bool isPrivate = false;   // a per-work-item Let-materialized array
  std::string context;      // display form, e.g. "read curr[(g_0 + -1)]"
};

/// Provenance of an opaque integer loaded from a buffer. The analysis models
/// the loaded value as a free variable; contracts on the source buffer can
/// then bound or distinguish it.
struct OpaqueOrigin {
  std::string buffer;
  arith::Expr position;            // where in `buffer` the value was loaded
  bool positionUsesWorkItem = false;
  bool positionUsesLoopVars = false;
};

struct KernelAccessInfo {
  std::string kernelName;
  std::vector<Access> accesses;

  std::optional<std::string> wiVar;  // MapGlb grid-stride variable
  arith::Expr wiCount = arith::Expr(0);
  int glbMapCount = 0;

  std::map<std::string, Domain> domains;      // loop and pad-guard variables
  std::map<std::string, arith::Expr> defs;    // let-bound scalar definitions
  std::map<std::string, OpaqueOrigin> atoms;  // opaque loaded ints by name
  std::set<std::string> sizeVars;             // size parameters, >= 0
  std::vector<std::string> notes;             // analysis limitations hit
};

/// Runs the abstract walk. The kernel must already generate successfully
/// (throws the same CodegenError/TypeError as codegen on malformed IR).
KernelAccessInfo collectAccesses(const memory::KernelDef& def);

}  // namespace lifta::analysis
