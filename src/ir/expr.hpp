// LIFT IR expressions and patterns.
//
// The IR follows the LIFT papers (Steuwer et al. CGO'17; Hagedorn et al.
// CGO'18) plus the four device-side primitives this paper adds (§IV, Table I):
//
//   WriteTo   — redirect an expression's output into an existing buffer
//               (enables in-place updates; suppresses output allocation)
//   Concat    — concatenate arrays; children write at accumulated offsets
//               (lowered through an OffsetView, §IV-B)
//   Skip      — type-level array of length i that generates *no code*; it
//               only shifts the offset of subsequent Concat children
//   ArrayCons — an array built by repeating one element n times
//
// Nodes are intentionally a single tagged struct (not a class hierarchy):
// the code generator and type checker are exhaustive switches over `Op`,
// which keeps "add a primitive" diffs small — the extensibility property the
// paper leans on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arith/expr.hpp"
#include "ir/type.hpp"

namespace lifta::ir {

enum class Op {
  Param,       // function/lambda parameter reference
  Literal,     // scalar constant
  Binary,      // scalar binary op
  Unary,       // scalar unary op
  Select,      // ternary c ? a : b
  Cast,        // scalar conversion
  UserFunCall, // call of a named user function with a C body
  Let,         // val x = e1; e2   (sequencing + sharing)
  MakeTuple,   // tuple construction
  Get,         // tuple projection
  Zip,         // element-wise pairing of arrays (a view; no data movement)
  Map,         // apply a lambda to each array element (Seq/Glb/Wrg/Lcl)
  Reduce,      // sequential reduction to a scalar
  Slide,       // overlapping neighborhoods (stencil windows)
  Pad,         // boundary enlargement (constant or clamp)
  Split,       // [T]_{n*m} -> [[T]_m]_n
  Join,        // inverse of Split
  Iota,        // [0, 1, ..., n-1] : [Int]_n
  Transpose,   // [[T]_m]_n -> [[T]_n]_m (a view; no data movement)
  Slide3,      // 3D neighborhoods over a nested 3D array (Listing 6)
  Pad3,        // 3D boundary enlargement on every face (Listing 6)
  ArrayAccess, // dynamic gather: arr[idx] with idx a runtime scalar
  WriteTo,     // NEW (paper §IV): write result of args[1] into args[0]
  Concat,      // NEW (paper §IV): concatenation of arrays
  Skip,        // NEW (paper §IV): no-op placeholder array of length args[0]
  ArrayCons,   // NEW (paper §IV): array of one repeated element
};

enum class MapKind { Seq, Glb, Wrg, Lcl };
enum class BinOp { Add, Sub, Mul, Div, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Min, Max };
enum class UnOp { Neg, Not };
enum class PadMode { Zero, Clamp };

struct Node;
using ExprPtr = std::shared_ptr<Node>;

/// A lambda abstraction used as the functional argument of Map/Reduce.
struct Lambda {
  std::vector<ExprPtr> params;  // each an Op::Param node
  ExprPtr body;
};
using LambdaPtr = std::shared_ptr<Lambda>;

/// A user function: an opaque scalar computation given as a C body, as in
/// LIFT (e.g. UserFun("add", {"a","b"}, "return a + b;", ...)).
struct UserFun {
  std::string name;
  std::vector<std::string> paramNames;
  std::vector<TypePtr> paramTypes;
  TypePtr returnType;
  /// C statement list using paramNames; must `return`. The kernel source
  /// includes no header (codegen::kernelPreamble), so a body cannot call
  /// libm by name; use the compiler builtins (e.g. __builtin_sqrt).
  std::string body;
};
using UserFunPtr = std::shared_ptr<UserFun>;

struct Node {
  Op op;
  TypePtr type;  // set at construction for leaves; filled in by typecheck()

  std::vector<ExprPtr> args;  // children (meaning depends on op)

  // --- payloads ---
  std::string name;        // Param: variable name
  double literalValue = 0; // Literal (also holds int value exactly up to 2^53)
  ScalarKind literalKind = ScalarKind::Float;
  BinOp bin = BinOp::Add;
  UnOp un = UnOp::Neg;
  MapKind mapKind = MapKind::Seq;
  int mapDim = 0;          // Glb/Wrg/Lcl dimension (0..2)
  LambdaPtr lambda;        // Map/Reduce
  UserFunPtr userFun;      // UserFunCall
  int tupleIndex = 0;      // Get
  arith::Expr size1;       // Slide size / Pad left / Split n / Iota n / ArrayCons n
  arith::Expr size2;       // Slide step / Pad right
  PadMode padMode = PadMode::Zero;
  TypePtr elemType;        // Skip: element type
};

// ---------------------------------------------------------------------------
// Builders. All return shared nodes; `type` is filled where it is intrinsic.
// ---------------------------------------------------------------------------

ExprPtr param(const std::string& name, TypePtr type);
ExprPtr litFloat(double v, ScalarKind k = ScalarKind::Float);
ExprPtr litInt(std::int64_t v);
ExprPtr binary(BinOp op, ExprPtr a, ExprPtr b);
ExprPtr unary(UnOp op, ExprPtr a);
ExprPtr select(ExprPtr cond, ExprPtr ifTrue, ExprPtr ifFalse);
ExprPtr cast(TypePtr to, ExprPtr a);
ExprPtr call(UserFunPtr fn, std::vector<ExprPtr> args);
ExprPtr let(ExprPtr p, ExprPtr value, ExprPtr body);
ExprPtr makeTuple(std::vector<ExprPtr> elems);
ExprPtr get(ExprPtr tuple, int index);
ExprPtr zip(std::vector<ExprPtr> arrays);
ExprPtr map(MapKind kind, int dim, LambdaPtr f, ExprPtr array);
ExprPtr mapSeq(LambdaPtr f, ExprPtr array);
ExprPtr mapGlb(LambdaPtr f, ExprPtr array, int dim = 0);
ExprPtr reduceSeq(LambdaPtr f, ExprPtr init, ExprPtr array);
ExprPtr slide(arith::Expr size, arith::Expr step, ExprPtr array);
ExprPtr pad(arith::Expr left, arith::Expr right, PadMode mode, ExprPtr array);
ExprPtr splitN(arith::Expr n, ExprPtr array);
ExprPtr joinA(ExprPtr array);
ExprPtr iota(arith::Expr n);
ExprPtr transpose(ExprPtr array);
/// 3D sliding neighborhoods: [[[T]_x]_y]_z -> windows of size^3 at every
/// (stepped) position, indexed m[z][y][x][dz][dy][dx].
ExprPtr slide3(arith::Expr size, arith::Expr step, ExprPtr array3d);
/// Pads every face of a 3D array by `amount` (Zero or Clamp).
ExprPtr pad3(arith::Expr amount, PadMode mode, ExprPtr array3d);
ExprPtr arrayAccess(ExprPtr array, ExprPtr index);
ExprPtr writeTo(ExprPtr dest, ExprPtr value);
ExprPtr concat(std::vector<ExprPtr> arrays);
ExprPtr skip(TypePtr elemType, ExprPtr length);
ExprPtr arrayCons(ExprPtr elem, arith::Expr n);

/// Lambda construction helper.
LambdaPtr lambda(std::vector<ExprPtr> params, ExprPtr body);

// Convenience scalar operators on ExprPtr.
inline ExprPtr operator+(ExprPtr a, ExprPtr b) { return binary(BinOp::Add, std::move(a), std::move(b)); }
inline ExprPtr operator-(ExprPtr a, ExprPtr b) { return binary(BinOp::Sub, std::move(a), std::move(b)); }
inline ExprPtr operator*(ExprPtr a, ExprPtr b) { return binary(BinOp::Mul, std::move(a), std::move(b)); }
inline ExprPtr operator/(ExprPtr a, ExprPtr b) { return binary(BinOp::Div, std::move(a), std::move(b)); }

}  // namespace lifta::ir
