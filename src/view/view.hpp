// The LIFT view system (§III-A of the paper, extended per §IV-B).
//
// A *view* is a compiler-intermediate description of where data lives and how
// an index into a logical value maps onto physical memory. Patterns like Zip,
// Slide, Pad, Split and Join never move data: they only wrap the view of
// their input. When the code generator reaches a scalar read or write, it
// *resolves* the accumulated view chain into a C index expression.
//
// This paper's additions appear here as:
//   OffsetView — created for each Concat argument; adds the sum of preceding
//                argument lengths to the written index (Table I: the output
//                view of mul3 is ViewAccess(i1, ViewOffset(N0, ViewMem(out))))
//   and the WriteTo semantics: the output view of WriteTo's value is simply
//   the *input* view of its destination, which is what makes updates land
//   in-place instead of in a freshly allocated buffer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arith/expr.hpp"
#include "ir/expr.hpp"  // for ir::PadMode
#include "ir/type.hpp"

namespace lifta::view {

enum class ViewKind {
  Mem,            // a named buffer (global or private memory)
  Access,         // array subscript with a symbolic index
  Zip,            // element-wise tuple of child views
  TupleComponent, // projection of a tuple view
  Slide,          // overlapping windows: (w, u) -> w*step + u
  Pad,            // index shift with zero-guard or clamping
  Split,          // (i, j) -> i*m + j
  Join,           // k -> (k/m, k%m)
  Transpose,      // (i, j) -> (j, i)
  Slide3,         // 3D neighborhoods: (z,y,x,dz,dy,dx) -> (z*s+dz, ...)
  Pad3,           // shift+guard on all three dimensions
  Offset,         // index shift by a symbolic offset (Concat/Skip)
  Iota,           // identity: the index itself is the value
  Constant,       // a fixed C expression, independent of the index
};

struct View;
using ViewPtr = std::shared_ptr<const View>;

struct View {
  ViewKind kind = ViewKind::Mem;
  ir::TypePtr type;               // type of the value this view describes

  std::vector<ViewPtr> children;  // Zip: all inputs; others: single input

  std::string mem;                // Mem: C identifier of the buffer
  std::string code;               // Constant: C expression text
  arith::Expr idx;                // Access index / Offset amount
  arith::Expr a;                  // Slide size / Pad left / Split m / Join m
  arith::Expr b;                  // Slide step / Pad right
  ir::PadMode padMode = ir::PadMode::Zero;
  int comp = 0;                   // TupleComponent index
};

// --- constructors ---
ViewPtr memView(const std::string& name, ir::TypePtr type);
ViewPtr accessView(ViewPtr inner, arith::Expr index);
ViewPtr zipView(std::vector<ViewPtr> inners, ir::TypePtr type);
ViewPtr tupleComponentView(ViewPtr inner, int comp);
ViewPtr slideView(ViewPtr inner, arith::Expr size, arith::Expr step);
ViewPtr padView(ViewPtr inner, arith::Expr left, arith::Expr right,
                ir::PadMode mode);
ViewPtr splitView(ViewPtr inner, arith::Expr m);
ViewPtr joinView(ViewPtr inner);
ViewPtr transposeView(ViewPtr inner);
ViewPtr slide3View(ViewPtr inner, arith::Expr size, arith::Expr step);
ViewPtr pad3View(ViewPtr inner, arith::Expr amount, ir::PadMode mode);
ViewPtr offsetView(ViewPtr inner, arith::Expr offset);
ViewPtr iotaView(arith::Expr count);
ViewPtr constantView(const std::string& cExpr, ir::TypePtr type);

/// Resolves a *scalar-typed* view chain into a C expression that loads the
/// value. `zeroLiteral` is used for out-of-bounds reads under zero padding
/// (e.g. "(real)0"). Throws CodegenError on malformed chains.
std::string resolveLoad(const ViewPtr& v, const std::string& zeroLiteral);

/// Resolves a *scalar-typed* view chain into a C lvalue for writing. Pads and
/// constants are illegal in output position. Throws CodegenError otherwise.
std::string resolveStore(const ViewPtr& v);

/// Debug rendering of the view structure (paper notation, e.g.
/// "TupleAccessView(0, ArrayAccessView(i, ZipView(MemView(A), MemView(B))))").
std::string describe(const ViewPtr& v);

// --- structured resolution (codegen optimizer) -----------------------------

/// A zero-Pad guard kept as expressions rather than C text: the access is in
/// bounds iff `0 <= adjusted && adjusted < size`.
struct AccessGuard {
  arith::Expr adjusted;
  arith::Expr size;
};

/// The structured twin of resolveLoad/resolveStore: the same walk, but the
/// flat address and the pad guards come back as arith::Expr so the codegen
/// optimizer can simplify, prove and CSE them before printing C. Guards are
/// listed in the order resolve() pushes them (the first guard ends up as the
/// outermost ternary).
struct ResolvedAccess {
  enum class Kind { Mem, Iota, Constant };
  Kind kind = Kind::Mem;
  std::string mem;                  // Kind::Mem: buffer name
  arith::Expr index;                // Kind::Mem flat address / Iota value
  arith::Expr extent;               // Kind::Mem: the buffer's element count
  std::string code;                 // Kind::Constant: C expression
  std::vector<AccessGuard> guards;  // zero-Pad guards (loads only)
};

/// Resolves a scalar-typed view chain into a structured access. Same error
/// conditions as resolveLoad/resolveStore (stores reject pads/constants).
ResolvedAccess resolveAccess(const ViewPtr& v, bool forStore);

// --- symbolic resolution (static analysis) ---------------------------------

/// A zero-Pad guard encountered while resolving a view chain: the access only
/// happens when `0 <= actual < size`; inside the resolved index the guarded
/// component is represented by the fresh variable `var` with domain
/// [0, size-1], so provers automatically assume the guard.
struct SymbolicGuard {
  std::string var;     // fresh variable standing for the guarded component
  arith::Expr actual;  // the real (unguarded) component expression
  arith::Expr size;    // inner extent the guard checks against
};

/// The result of symbolically resolving a scalar-typed view chain: which
/// memory is touched and at which flat element index — the analysis-side twin
/// of resolveLoad/resolveStore, producing arith::Expr instead of C text.
struct SymbolicAccess {
  enum class Kind {
    Mem,       // buffer access: `mem[index]`, extent = flat element count
    Iota,      // no memory touched; `index` is the value itself
    Constant,  // ArrayCons element; no memory touched here
  };
  Kind kind = Kind::Mem;
  std::string mem;                    // Kind::Mem only
  arith::Expr index;                  // flat element index (or Iota value)
  arith::Expr extent;                 // Kind::Mem: flat element count
  std::vector<SymbolicGuard> guards;  // zero-Pad guards wrapping the access
  bool clamped = false;               // a Clamp pad contributed min/max terms
};

/// Resolves a scalar-typed view chain symbolically. `guardCounter` supplies
/// unique suffixes for guard variables across one kernel's analysis. Throws
/// CodegenError on malformed chains (same conditions as resolveLoad).
SymbolicAccess resolveSymbolic(const ViewPtr& v, int& guardCounter);

}  // namespace lifta::view
