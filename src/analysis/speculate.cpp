#include "analysis/speculate.hpp"

#include <algorithm>
#include <utility>

namespace lifta::analysis {

using arith::Expr;
using ir::Op;

namespace {

bool isInt(const ir::TypePtr& t) {
  return t != nullptr && t->isScalar() &&
         t->scalarKind() == ir::ScalarKind::Int;
}

/// True when evaluating `e` has no effect and cannot trap: every node is a
/// scalar read, view construction or arithmetic other than integer division
/// and real-to-integer conversion.
bool speculatable(const ir::ExprPtr& e) {
  const ir::Node& n = *e;
  switch (n.op) {
    case Op::Param:
    case Op::Literal:
    case Op::Iota:
      return true;
    case Op::Binary:
      if (n.bin == ir::BinOp::Div && isInt(n.type)) return false;
      break;
    case Op::Cast:
      if (isInt(n.type) && !isInt(n.args[0]->type)) return false;
      break;
    case Op::Let:
      if (!n.args[1]->type->isScalar()) return false;
      break;
    case Op::Unary:
    case Op::Select:
    case Op::Get:
    case Op::ArrayAccess:
    case Op::Zip:
    case Op::Slide:
    case Op::Pad:
    case Op::Split:
    case Op::Join:
    case Op::Transpose:
    case Op::Slide3:
    case Op::Pad3:
      break;
    default:
      return false;
  }
  for (const auto& a : n.args) {
    if (!speculatable(a)) return false;
  }
  return true;
}

}  // namespace

const ir::Node* speculationCandidate(const ir::ExprPtr& body) {
  if (body == nullptr || body->type == nullptr || !body->type->isScalar()) {
    return nullptr;
  }
  ir::ExprPtr v = body;
  while (v->op == Op::Let) v = v->args[2];
  if (v->op != Op::Select || !speculatable(v->args[1])) return nullptr;
  return v.get();
}

void SpeculationProbe::noteLoad(std::string buffer, Expr address, Expr extent,
                                bool guarded) {
  if (arm < 0) return;
  loads.push_back(
      Load{arm, std::move(buffer), std::move(address), std::move(extent),
           guarded});
}

std::optional<SpeculationRange> speculationRange(const SpeculationProbe& probe,
                                                 const std::string& iv,
                                                 const Expr& len) {
  if (!len.isConst()) return std::nullopt;
  std::int64_t lo = 0;
  std::int64_t hi = len.constValue();
  bool speculated = false;
  for (const auto& ld : probe.loads) {
    if (ld.arm == 2) return std::nullopt;
    if (ld.arm != 1) continue;
    if (ld.guarded || !ld.extent.isConst()) return std::nullopt;
    const Expr k = ld.address.substitute(probe.iotaLets) - Expr::var(iv);
    if (!k.isConst()) return std::nullopt;
    // A[iv + k] is in bounds for iv in [-k, E - k).
    lo = std::max(lo, -k.constValue());
    hi = std::min(hi, ld.extent.constValue() - k.constValue());
    speculated = true;
  }
  if (!speculated || lo >= hi) return std::nullopt;
  return SpeculationRange{lo, hi};
}

ChunkSplit splitChunk(std::int64_t lo, std::int64_t hi, std::int64_t mlo,
                      std::int64_t mhi) {
  ChunkSplit s;
  s.edgeHi = std::min(hi, mlo);
  s.midLo = std::max(lo, mlo);
  s.midHi = std::max(s.midLo, std::min(hi, mhi));
  return s;
}

}  // namespace lifta::analysis
