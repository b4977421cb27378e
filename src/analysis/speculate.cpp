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

namespace {

/// True when every name `e` mentions is in `invariants`.
bool invariant(const Expr& e, const std::set<std::string>& invariants) {
  for (const auto& v : e.freeVars()) {
    if (invariants.count(v) == 0) return false;
  }
  return true;
}

/// Adds `t` to a bound's terms, keeping the tighter of two terms whose
/// difference is a constant (the larger lower bound, the smaller upper).
void addBound(std::vector<Expr>& terms, const Expr& t, bool lower) {
  for (auto& e : terms) {
    const Expr d = arith::distribute(e - t);
    if (!d.isConst()) continue;
    if (lower ? d.constValue() < 0 : d.constValue() > 0) e = t;
    return;
  }
  terms.push_back(t);
}

}  // namespace

std::set<std::string> runtimeInts(const memory::KernelDef& def,
                                  const memory::Specialization& spec) {
  std::set<std::string> out;
  for (const auto& p : def.params) {
    if (isInt(p->type) && spec.ints.count(p->name) == 0) out.insert(p->name);
  }
  return out;
}

Expr foldBound(const std::vector<Expr>& terms, bool max) {
  Expr out = terms.front();
  for (std::size_t i = 1; i < terms.size(); ++i) {
    out = max ? arith::max(out, terms[i]) : arith::min(out, terms[i]);
  }
  return out;
}

std::vector<Expr> boundTerms(const Expr& e, bool max) {
  if (e.kind() != (max ? arith::Kind::Max : arith::Kind::Min)) return {e};
  std::vector<Expr> out = boundTerms(e.operands()[0], max);
  for (auto& t : boundTerms(e.operands()[1], max)) out.push_back(std::move(t));
  return out;
}

std::optional<SpeculationRange> speculationRange(
    const SpeculationProbe& probe, const std::string& iv, const Expr& len,
    const std::set<std::string>& invariants) {
  if (!invariant(len, invariants)) return std::nullopt;
  SpeculationRange r{{Expr(0)}, {len}};
  bool speculated = false;
  for (const auto& ld : probe.loads) {
    if (ld.arm == 2) return std::nullopt;
    if (ld.arm != 1) continue;
    if (ld.guarded || !invariant(ld.extent, invariants)) return std::nullopt;
    const Expr k = ld.address.substitute(probe.iotaLets) - Expr::var(iv);
    if (!invariant(k, invariants)) return std::nullopt;
    // A[iv + k] is in bounds for iv in [-k, E - k).
    addBound(r.lower, Expr(0) - k, /*lower=*/true);
    addBound(r.upper, ld.extent - k, /*lower=*/false);
    speculated = true;
  }
  if (!speculated) return std::nullopt;
  const Expr lo = foldBound(r.lower, true);
  const Expr hi = foldBound(r.upper, false);
  if (lo.isConst() && hi.isConst() && lo.constValue() >= hi.constValue()) {
    return std::nullopt;
  }
  return r;
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
