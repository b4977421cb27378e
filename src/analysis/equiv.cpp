#include "analysis/equiv.hpp"

#include <utility>

#include "analysis/simplify.hpp"
#include "analysis/verify.hpp"
#include "analysis/walk.hpp"
#include "common/string_util.hpp"
#include "ir/typecheck.hpp"

namespace lifta::analysis {

using arith::Expr;
using arith::Kind;
using ir::ExprPtr;
using ir::Node;
using ir::Op;
using view::ViewPtr;

namespace {

SummaryValPtr makeLit(std::string text) {
  auto v = std::make_shared<SummaryVal>();
  v->kind = SummaryVal::Kind::Lit;
  v->text = std::move(text);
  return v;
}

SummaryValPtr makeIndex(Expr e) {
  auto v = std::make_shared<SummaryVal>();
  v->kind = SummaryVal::Kind::Index;
  v->index = std::move(e);
  return v;
}

SummaryValPtr makeLoad(std::string buffer, Expr address) {
  auto v = std::make_shared<SummaryVal>();
  v->kind = SummaryVal::Kind::Load;
  v->buffer = std::move(buffer);
  v->index = std::move(address);
  return v;
}

SummaryValPtr makeGuard(std::vector<ValGuard> guards, SummaryValPtr inner) {
  auto v = std::make_shared<SummaryVal>();
  v->kind = SummaryVal::Kind::Guard;
  v->guards = std::move(guards);
  v->args.push_back(std::move(inner));
  return v;
}

SummaryValPtr makeApply(std::string tag, std::vector<SummaryValPtr> args) {
  auto v = std::make_shared<SummaryVal>();
  v->kind = SummaryVal::Kind::Apply;
  v->text = std::move(tag);
  v->args = std::move(args);
  return v;
}

const char* binOpTag(ir::BinOp b) {
  switch (b) {
    case ir::BinOp::Add: return "+";
    case ir::BinOp::Sub: return "-";
    case ir::BinOp::Mul: return "*";
    case ir::BinOp::Div: return "/";
    case ir::BinOp::Min: return "min";
    case ir::BinOp::Max: return "max";
    case ir::BinOp::Eq: return "==";
    case ir::BinOp::Ne: return "!=";
    case ir::BinOp::Lt: return "<";
    case ir::BinOp::Le: return "<=";
    case ir::BinOp::Gt: return ">";
    case ir::BinOp::Ge: return ">=";
    case ir::BinOp::And: return "&&";
    case ir::BinOp::Or: return "||";
  }
  return "?";
}

/// A value in flight: the summary tree plus, when the scalar is an integer
/// the index algebra can follow, its arith::Expr form.
struct EV {
  SummaryValPtr val;
  std::optional<Expr> ival;
};

/// Runs the shared IR walk (analysis/walk.hpp), recording the stores of
/// the program the emitter generates with their addresses and value trees.
/// Loads resolve through view::resolveAccess, the structured resolution the
/// optimizing emitter prints from; an optimized walk applies the same
/// simplifyIndex/proveGuardSides pipeline to them.
class Summarizer : public Walk<Summarizer, EV> {
  using Base = Walk<Summarizer, EV>;
  friend Base;

 public:
  Summarizer(const memory::KernelDef& def, bool optimized,
             const memory::Specialization& spec)
      : Base(def, spec, optimized) {}

  KernelSummary run() {
    ir::typecheck(def_.body);
    summary_.kernelName = def_.name;
    summary_.optimized = optimized_;
    walkArray(def_.body, bindKernel());
    summary_.sizeVars = sizeParams([this](const std::string& v) {
      return atoms_.count(v) || summary_.letIndex.count(v);
    });
    summary_.domains = std::move(domains_);
    summary_.extents = std::move(extents_);
    return std::move(summary_);
  }

 private:
  // --- access resolution ---------------------------------------------------

  Expr atomFor(const std::string& mem, const Expr& rawIndex) {
    const std::string key = mem + "@" + rawIndex.toString();
    auto it = atomCache_.find(key);
    if (it != atomCache_.end()) return Expr::var(it->second);
    std::string name = preferredAtom_;
    preferredAtom_.clear();
    if (name.empty() || atoms_.count(name) || domains_.count(name) ||
        summary_.letIndex.count(name)) {
      name = fresh("ld");
    }
    atoms_.insert(name);
    atomCache_.emplace(key, name);
    return Expr::var(name);
  }

  /// A flat address as the walk's emitter prints it: specialized, then
  /// simplified when optimized.
  Expr address(const Expr& raw) const {
    return optimized_ ? simplifyIndex(raw, prover_) : raw;
  }

  std::vector<ValGuard> processGuards(const std::vector<view::AccessGuard>& in) {
    std::vector<ValGuard> out;
    out.reserve(in.size());
    for (const auto& g : in) {
      ValGuard vg;
      vg.adjusted = address(spec_.subst(g.adjusted));
      vg.size = spec_.subst(g.size);
      if (optimized_) {
        const GuardSides sides =
            proveGuardSides(vg.adjusted, vg.size, prover_);
        vg.droppedLower = sides.lowerProven;
        vg.droppedUpper = sides.upperProven;
      }
      out.push_back(std::move(vg));
    }
    return out;
  }

  // --- walk hooks ------------------------------------------------------------

  /// Specialized int scalars bind to their constant and real ones to their
  /// literal, as the emitter prints them.
  EV scalarParam(const Node& p) const {
    if (isIntScalar(p.type)) {
      auto si = spec_.ints.find(p.name);
      const Expr iv = si != spec_.ints.end() ? Expr(si->second)
                                             : Expr::var(p.name);
      return EV{makeIndex(iv), iv};
    }
    auto sr = spec_.reals.find(p.name);
    const std::string code =
        sr != spec_.reals.end()
            ? enclose("(",
                      memory::Specialization::realLiteral(sr->second,
                                                          def_.real),
                      ")")
            : p.name;
    return EV{makeLit(code), {}};
  }

  EV indexValue(const Expr& index) const { return EV{makeIndex(index), index}; }

  /// The emitter embeds the element's C code in the constant view; the
  /// value tree is stashed behind a unique token that load() recovers.
  std::string constant(const EV& elem) {
    const std::string token = fresh("cv");
    constVals_.emplace(token, elem);
    return token;
  }

  /// Resolves a scalar view read into a value, through the optimizer's
  /// address/guard pipeline on an optimized walk.
  EV load(const ViewPtr& v) {
    view::ResolvedAccess a = view::resolveAccess(v, /*forStore=*/false);
    EV ev;
    switch (a.kind) {
      case view::ResolvedAccess::Kind::Iota: {
        const Expr ix = address(spec_.subst(a.index));
        ev = EV{makeIndex(ix), ix};
        lastIota_ = ev.val;
        break;
      }
      case view::ResolvedAccess::Kind::Constant: {
        auto it = constVals_.find(a.code);
        ev = (it != constVals_.end()) ? it->second : EV{makeLit(a.code), {}};
        break;
      }
      case view::ResolvedAccess::Kind::Mem: {
        const Expr raw = spec_.subst(a.index);
        const Expr addr = address(raw);
        ev.val = makeLoad(a.mem, addr);
        if (v->type && isIntScalar(v->type)) ev.ival = atomFor(a.mem, raw);
        // The probe sees the load as the emitter prints it.
        if (probe_) {
          probe_->noteLoad(a.mem, addr, spec_.subst(a.extent),
                           !a.guards.empty());
        }
        break;
      }
    }
    if (!a.guards.empty()) {
      ev.val = makeGuard(processGuards(a.guards), ev.val);
    }
    return ev;
  }

  EV store(const ViewPtr& v, EV value) {
    view::ResolvedAccess a = view::resolveAccess(v, /*forStore=*/true);
    if (a.kind != view::ResolvedAccess::Kind::Mem) {
      throw CodegenError("store destination did not resolve to memory");
    }
    StoreSummary s;
    s.buffer = a.mem;
    s.address = address(spec_.subst(a.index));
    s.value = value.val ? value.val : makeLit("?");
    s.context = "store " + a.mem + "[" + a.index.toString() + "]";
    summary_.stores.push_back(std::move(s));
    return value;
  }

  Expr indexLeaf(const ExprPtr& e) {
    const EV v = scalar(e);
    return v.ival ? *v.ival : Expr::var(fresh("ix"));
  }

  EV compute(const Node& n) {
    switch (n.op) {
      case Op::Literal:
        if (n.literalKind == ir::ScalarKind::Int) {
          const Expr c(static_cast<std::int64_t>(n.literalValue));
          return EV{makeIndex(c), c};
        }
        return EV{makeLit(strformat("%.17g", n.literalValue)), {}};

      case Op::Binary: {
        EV a = scalar(n.args[0]);
        EV b = scalar(n.args[1]);
        if (isIntScalar(n.type) && a.ival && b.ival) {
          std::optional<Expr> r;
          switch (n.bin) {
            case ir::BinOp::Add: r = *a.ival + *b.ival; break;
            case ir::BinOp::Sub: r = *a.ival - *b.ival; break;
            case ir::BinOp::Mul: r = *a.ival * *b.ival; break;
            case ir::BinOp::Div: r = arith::div(*a.ival, *b.ival); break;
            case ir::BinOp::Min: r = arith::min(*a.ival, *b.ival); break;
            case ir::BinOp::Max: r = arith::max(*a.ival, *b.ival); break;
            default: break;
          }
          if (r) return EV{makeIndex(*r), *r};
        }
        return EV{makeApply(binOpTag(n.bin), {a.val, b.val}), {}};
      }

      case Op::Unary: {
        EV a = scalar(n.args[0]);
        if (n.un == ir::UnOp::Neg && isIntScalar(n.type) && a.ival) {
          const Expr r = Expr(0) - *a.ival;
          return EV{makeIndex(r), r};
        }
        return EV{makeApply(n.un == ir::UnOp::Neg ? "neg" : "not", {a.val}),
                  {}};
      }

      case Op::Select: {
        const auto arm = [&](int a) {
          if (probe_ && probe_->select == &n) probe_->arm = a;
        };
        arm(0);
        EV c = scalar(n.args[0]);
        arm(1);
        EV t = scalar(n.args[1]);
        arm(2);
        EV f = scalar(n.args[2]);
        arm(-1);
        return EV{makeApply("select", {c.val, t.val, f.val}), {}};
      }

      case Op::Cast: {
        EV a = scalar(n.args[0]);
        std::optional<Expr> ival;
        if (isIntScalar(n.type) && isIntScalar(n.args[0]->type)) ival = a.ival;
        return EV{
            makeApply("cast#" + std::to_string(static_cast<int>(
                                    n.type->scalarKind())),
                      {a.val}),
            ival};
      }

      case Op::UserFunCall: {
        std::vector<SummaryValPtr> args;
        for (const auto& a : n.args) args.push_back(scalar(a).val);
        return EV{makeApply("call " + n.userFun->name, std::move(args)), {}};
      }

      default:
        notScalar(n);
    }
  }

  /// The emitter binds a scalar let to a C local and treats the name as
  /// opaque in index algebra: ival is the binder's name, while the value
  /// tree keeps the full computation for comparison.
  EV letScalar(const std::string& name, const ExprPtr& value) {
    const bool pureLoad = value->op == Op::Param ||
                          value->op == Op::ArrayAccess ||
                          value->op == Op::Get;
    if (pureLoad && isIntScalar(value->type)) {
      // Loaded opaque integers adopt the binder's name, so summary
      // addresses read like the emitted code.
      preferredAtom_ = name;
    }
    lastIota_ = nullptr;
    EV v = scalar(value);
    preferredAtom_.clear();
    if (!isIntScalar(value->type)) return EV{v.val, {}};
    const Expr named = Expr::var(name);
    if (v.ival && !(*v.ival == named)) summary_.letIndex[name] = *v.ival;
    // A let holding an Iota element read: the loop index itself.
    if (probe_ && lastIota_ && v.val == lastIota_) {
      probe_->iotaLets[name] = *v.ival;
    }
    return EV{v.val, named};
  }

  std::string accumulatorName() { return fresh("acc"); }

  EV accumulator(const std::string& acc, const Node&, const EV&) const {
    return EV{makeLit(acc), {}};
  }

  EV reduced(const std::string& acc, const EV& init, const std::string& iv,
             const EV& body) const {
    return EV{makeApply("reduce " + acc + " " + iv, {init.val, body.val}), {}};
  }

  // --- guard speculation -----------------------------------------------------

  bool maySpeculate() const { return !probe_; }

  /// Walks the map body with a probe attached and decides speculation as
  /// the emitter does; a speculated store records its domain and marks
  /// the loads of its select's t arm.
  void speculate(const Node& n, const ViewPtr& dest, const std::string& iv,
                 const Expr& len, const Node* select) {
    probe_.emplace();
    probe_->select = select;
    mapIteration(n, dest, false, Expr::var(iv));
    const SpeculationProbe probe = std::move(*probe_);
    probe_.reset();
    StoreSummary& st = summary_.stores.back();
    const auto range = isParam(st.buffer)
                           ? std::nullopt
                           : speculationRange(probe, iv, len,
                                              runtimeInts(def_, spec_));
    if (!range) return;
    std::vector<Expr> last;  // inclusive upper bounds
    for (const auto& h : range->upper) last.push_back(h - Expr(1));
    st.speculation = Speculation{
        iv, Domain{foldBound(range->lower, true), foldBound(last, false),
                   true}};
    auto sel = std::make_shared<SummaryVal>(*st.value);
    sel->args[1] = markSpeculated(sel->args[1]);
    st.value = std::move(sel);
  }

  /// Copies a value tree with every Load marked speculated.
  static SummaryValPtr markSpeculated(const SummaryValPtr& v) {
    auto copy = std::make_shared<SummaryVal>(*v);
    if (copy->kind == SummaryVal::Kind::Load) copy->speculated = true;
    for (auto& a : copy->args) a = markSpeculated(a);
    return copy;
  }

  KernelSummary summary_;
  std::map<std::string, std::string> atomCache_;  // buffer@index -> atom name
  std::map<std::string, EV> constVals_;           // ArrayCons token -> value
  std::set<std::string> atoms_;
  std::string preferredAtom_;
  SummaryValPtr lastIota_;  // the last Iota element read's value node
  std::optional<SpeculationProbe> probe_;
};

// --- equality proving -------------------------------------------------------

Expr replaceAll(const Expr& e, const Expr& from, const Expr& to) {
  if (e == from) return to;
  if (e.kind() == Kind::Const || e.kind() == Kind::Var) return e;
  std::vector<Expr> ops;
  ops.reserve(e.operands().size());
  for (const auto& op : e.operands()) ops.push_back(replaceAll(op, from, to));
  switch (e.kind()) {
    case Kind::Add: return arith::add(std::move(ops));
    case Kind::Mul: return arith::mul(std::move(ops));
    case Kind::Div: return arith::div(ops[0], ops[1]);
    case Kind::Mod: return arith::mod(ops[0], ops[1]);
    case Kind::Min: return arith::min(ops[0], ops[1]);
    case Kind::Max: return arith::max(ops[0], ops[1]);
    default: return e;
  }
}

/// x % y == x - y*(x/y) exactly (C semantics, identical trap domain), so a
/// difference containing Mod can always be restated with Div only.
Expr eliminateMod(const Expr& e) {
  if (e.kind() == Kind::Const || e.kind() == Kind::Var) return e;
  std::vector<Expr> ops;
  ops.reserve(e.operands().size());
  for (const auto& op : e.operands()) ops.push_back(eliminateMod(op));
  switch (e.kind()) {
    case Kind::Add: return arith::add(std::move(ops));
    case Kind::Mul: return arith::mul(std::move(ops));
    case Kind::Div: return arith::div(ops[0], ops[1]);
    case Kind::Mod: return ops[0] - ops[1] * arith::div(ops[0], ops[1]);
    case Kind::Min: return arith::min(ops[0], ops[1]);
    case Kind::Max: return arith::max(ops[0], ops[1]);
    default: return e;
  }
}

std::optional<Expr> findInnermostDiv(const Expr& e) {
  if (e.kind() == Kind::Const || e.kind() == Kind::Var) return std::nullopt;
  for (const auto& op : e.operands()) {
    if (auto f = findInnermostDiv(op)) return f;
  }
  if (e.kind() == Kind::Div) return e;
  return std::nullopt;
}

}  // namespace

bool provenEqual(const Prover& p, const Expr& a, const Expr& b) {
  if (a == b) return true;
  Expr d = a - b;
  if (d.isConst()) return d.constValue() == 0;
  d = eliminateMod(d);
  // Discharge Div nodes innermost-first: replace x/y by its exact polynomial
  // quotient when the division is provably exact truncation (remainder in
  // [0, y), numerator nonnegative, divisor positive) — this independently
  // re-derives the rewrite simplifyIndex performed — otherwise by an opaque
  // fresh variable so structurally-equal residues still cancel.
  int opaque = 0;
  for (int round = 0; round < 16; ++round) {
    auto t = findInnermostDiv(d);
    if (!t) break;
    const Expr& x = t->operands()[0];
    const Expr& y = t->operands()[1];
    Expr replacement = Expr::var("eq$" + std::to_string(opaque));
    bool exact = false;
    if (auto qr = polyDivide(x, y)) {
      const Expr& q = qr->first;
      const Expr& r = qr->second;
      if (p.proveGE0(r).proof == Proof::Yes &&
          p.proveGE0(y - Expr(1) - r).proof == Proof::Yes &&
          p.proveGE0(x).proof == Proof::Yes &&
          p.proveGE0(y - Expr(1)).proof == Proof::Yes) {
        replacement = q;
        exact = true;
      }
    }
    if (!exact) ++opaque;
    d = replaceAll(d, *t, replacement);
    if (d.isConst()) return d.constValue() == 0;
  }
  return p.proveGE0(d).proof == Proof::Yes &&
         p.proveGE0(Expr(0) - d).proof == Proof::Yes;
}

std::string describeVal(const SummaryValPtr& v) {
  if (!v) return "?";
  switch (v->kind) {
    case SummaryVal::Kind::Lit:
      return v->text;
    case SummaryVal::Kind::Index:
      return v->index.toString();
    case SummaryVal::Kind::Load:
      return v->buffer + "[" + v->index.toString() + "]";
    case SummaryVal::Kind::Guard: {
      std::string s = "guard(";
      for (const auto& g : v->guards) {
        s += "0<=" + g.adjusted.toString() + "<" + g.size.toString() + "; ";
      }
      return s + describeVal(v->args.empty() ? nullptr : v->args[0]) + ")";
    }
    case SummaryVal::Kind::Apply: {
      std::string s = v->text + "(";
      for (std::size_t i = 0; i < v->args.size(); ++i) {
        if (i) s += ", ";
        s += describeVal(v->args[i]);
      }
      return s + ")";
    }
  }
  return "?";
}

namespace {

const char* kindName(SummaryVal::Kind k) {
  switch (k) {
    case SummaryVal::Kind::Lit: return "literal";
    case SummaryVal::Kind::Index: return "index";
    case SummaryVal::Kind::Load: return "load";
    case SummaryVal::Kind::Guard: return "guard";
    case SummaryVal::Kind::Apply: return "apply";
  }
  return "?";
}

/// Compares one pad guard. A side the optimizer dropped (and the reference
/// kept) must be provable from the reference's as-written adjusted
/// expression; sides kept by both must use provably equal expressions.
std::optional<std::string> diffGuard(const Prover& p, const ValGuard& rg,
                                     const ValGuard& og) {
  if (!(rg.size == og.size)) {
    return "guard extent changed: " + rg.size.toString() + " vs " +
           og.size.toString();
  }
  const bool refL = !rg.droppedLower, refU = !rg.droppedUpper;
  const bool optL = !og.droppedLower, optU = !og.droppedUpper;
  if (refL != optL &&
      !(p.proveGE0(rg.adjusted).proof == Proof::Yes)) {
    return "guard lower bound 0 <= " + rg.adjusted.toString() +
           " eliminated but not provable";
  }
  if (refU != optU &&
      !(p.proveGE0(rg.size - Expr(1) - rg.adjusted).proof == Proof::Yes)) {
    return "guard upper bound " + rg.adjusted.toString() + " < " +
           rg.size.toString() + " eliminated but not provable";
  }
  if (((refL && optL) || (refU && optU)) &&
      !provenEqual(p, rg.adjusted, og.adjusted)) {
    return "guard expression changed: " + rg.adjusted.toString() + " vs " +
           og.adjusted.toString();
  }
  return std::nullopt;
}

/// Re-proves the loads a speculated store evaluates whatever its select's
/// condition says: from the reference walk's as-written address, with its
/// let-bound locals expanded, each must lie in [0, extent) for every loop
/// index in the speculated domain — the same start the dropped pad-guard
/// sides are re-proven from. A domain [max(L...), min(H...)] lies inside
/// [L, H] for each pair of its terms, so each side of a load holds once it
/// is proven over one pair; the prover also takes the pair's range as
/// nonempty, which holds whenever the speculated domain is.
class SpeculationCheck {
 public:
  SpeculationCheck(const Prover& p, const KernelSummary& ref,
                   Speculation spec)
      : ref_(ref), spec_(std::move(spec)) {
    Prover base = p;
    for (const auto& [name, value] : ref_.letIndex) base.define(name, value);
    for (const auto& lo : boundTerms(spec_.domain.lo, true)) {
      for (const auto& hi : boundTerms(spec_.domain.hi, false)) {
        provers_.push_back(base);
        provers_.back().setDomain(spec_.loopVar, Domain{lo, hi, true});
      }
    }
  }

  std::optional<std::string> prove(const SummaryVal& refLoad) const {
    auto ext = ref_.extents.find(refLoad.buffer);
    if (ext == ref_.extents.end()) {
      return "speculated load of '" + refLoad.buffer + "' has no known extent";
    }
    const Expr& a = refLoad.index;
    if (holds(a) && holds(ext->second - Expr(1) - a)) return std::nullopt;
    return "speculated load " + refLoad.buffer + "[" + a.toString() +
           "] not provably in [0, " + ext->second.toString() + ") for " +
           spec_.loopVar + " in [" + spec_.domain.lo.toString() + ", " +
           spec_.domain.hi.toString() + "]";
  }

 private:
  /// goal >= 0 over the speculated domain?
  bool holds(const Expr& goal) const {
    for (const auto& p : provers_) {
      if (p.proveGE0(goal).proof == Proof::Yes) return true;
    }
    return false;
  }

  const KernelSummary& ref_;
  Speculation spec_;
  std::vector<Prover> provers_;  // one per (lower, upper) term pair
};

/// Calls `fn` on every Load node of a value tree.
template <typename Fn>
void forEachLoad(const SummaryValPtr& v, const Fn& fn) {
  if (!v) return;
  if (v->kind == SummaryVal::Kind::Load) fn(*v);
  for (const auto& a : v->args) forEachLoad(a, fn);
}

/// The shape a speculated store must have: select(c, t, f) with every load
/// of t marked speculated, no load in f, and no arm reading the stored
/// buffer (the unconditional store of t would feed back into it).
std::optional<std::string> checkSpeculatedShape(const StoreSummary& s,
                                                const KernelSummary& ref) {
  const SummaryValPtr& v = s.value;
  if (!v || v->kind != SummaryVal::Kind::Apply || v->text != "select" ||
      v->args.size() != 3) {
    return "speculated store does not store a select";
  }
  if (!ref.domains.count(s.speculation->loopVar)) {
    return "speculated loop variable '" + s.speculation->loopVar +
           "' is not a loop of the kernel";
  }
  std::optional<std::string> err;
  for (std::size_t arm = 0; arm < 3; ++arm) {
    forEachLoad(v->args[arm], [&](const SummaryVal& ld) {
      if (err) return;
      if (ld.buffer == s.buffer) {
        err = "speculated store reads its own buffer '" + s.buffer + "'";
      } else if (arm == 2) {
        err = "speculated store's fallback arm loads " + ld.buffer;
      } else if (arm == 1 && !ld.speculated) {
        err = "load " + ld.buffer + "[" + ld.index.toString() +
              "] in a speculated arm is not marked speculated";
      }
    });
  }
  return err;
}

std::optional<std::string> diffVal(const Prover& p, const SummaryValPtr& ref,
                                   const SummaryValPtr& opt,
                                   const SpeculationCheck* spec) {
  if (!ref || !opt) {
    return (ref == opt) ? std::nullopt
                        : std::optional<std::string>("value missing");
  }
  if (ref->kind != opt->kind) {
    return std::string("value shape changed: ") + kindName(ref->kind) +
           " became " + kindName(opt->kind) + " (" + describeVal(ref) +
           " vs " + describeVal(opt) + ")";
  }
  switch (ref->kind) {
    case SummaryVal::Kind::Lit:
      if (ref->text != opt->text) {
        return "literal changed: " + ref->text + " vs " + opt->text;
      }
      return std::nullopt;
    case SummaryVal::Kind::Index:
      if (!provenEqual(p, ref->index, opt->index)) {
        return "integer value not provably equal: " + ref->index.toString() +
               " vs " + opt->index.toString();
      }
      return std::nullopt;
    case SummaryVal::Kind::Load:
      if (ref->buffer != opt->buffer) {
        return "load buffer changed: " + ref->buffer + " vs " + opt->buffer;
      }
      if (!provenEqual(p, ref->index, opt->index)) {
        return "load address not provably equal: " + ref->index.toString() +
               " vs " + opt->index.toString() + " (buffer " + ref->buffer +
               ")";
      }
      if (opt->speculated) {
        if (spec == nullptr) {
          return "load " + describeVal(opt) +
                 " speculated outside a speculated store";
        }
        return spec->prove(*ref);
      }
      return std::nullopt;
    case SummaryVal::Kind::Guard: {
      if (ref->guards.size() != opt->guards.size()) {
        return "guard count changed: " +
               std::to_string(ref->guards.size()) + " vs " +
               std::to_string(opt->guards.size());
      }
      for (std::size_t i = 0; i < ref->guards.size(); ++i) {
        if (auto m = diffGuard(p, ref->guards[i], opt->guards[i])) return m;
      }
      break;  // fall through to args
    }
    case SummaryVal::Kind::Apply:
      if (ref->text != opt->text) {
        return "operation changed: " + ref->text + " vs " + opt->text;
      }
      break;  // fall through to args
  }
  if (ref->args.size() != opt->args.size()) {
    return "operand count changed for '" + ref->text + "': " +
           std::to_string(ref->args.size()) + " vs " +
           std::to_string(opt->args.size());
  }
  for (std::size_t i = 0; i < ref->args.size(); ++i) {
    if (auto m = diffVal(p, ref->args[i], opt->args[i], spec)) return m;
  }
  return std::nullopt;
}

}  // namespace

KernelSummary summarizeKernel(const memory::KernelDef& def, bool optimized) {
  return summarizeKernel(def, optimized, memory::Specialization{});
}

KernelSummary summarizeKernel(const memory::KernelDef& def, bool optimized,
                              const memory::Specialization& spec) {
  Summarizer s(def, optimized, spec);
  return s.run();
}

Report compareSummaries(const KernelSummary& ref, const KernelSummary& opt) {
  Report report;
  report.subject = ref.kernelName;

  auto error = [&](std::string message, const std::string& origin,
                   const std::string& index, const std::string& node) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.pass = PassId::Equiv;
    d.kernel = ref.kernelName;
    d.node = node;
    d.message = std::move(message);
    d.indexExpr = index;
    d.origin = origin;
    report.diagnostics.push_back(std::move(d));
  };

  // All proofs run under the reference walk's facts: loop domains (with the
  // nonempty-range fact the emitter also assumes) and size nonnegativity.
  Prover p;
  for (const auto& [v, d] : ref.domains) {
    p.setDomain(v, d);
    p.assumeNonNegative(d.hi - d.lo);
  }
  for (const auto& v : ref.sizeVars) p.assumeAtLeast(v, 0);

  if (ref.stores.size() != opt.stores.size()) {
    error("store count changed: " + std::to_string(ref.stores.size()) +
              " stores before optimization, " +
              std::to_string(opt.stores.size()) + " after",
          "", "", "");
    return report;
  }

  for (std::size_t i = 0; i < ref.stores.size(); ++i) {
    const StoreSummary& rs = ref.stores[i];
    const StoreSummary& os = opt.stores[i];
    if (rs.buffer != os.buffer) {
      error("store buffer changed: " + rs.buffer + " became " + os.buffer,
            rs.context, os.address.toString(), rs.buffer);
      continue;
    }
    if (!provenEqual(p, rs.address, os.address)) {
      error("store address not provably equal: " + rs.address.toString() +
                " vs " + os.address.toString(),
            rs.context, os.address.toString(), rs.buffer);
      continue;
    }
    std::optional<SpeculationCheck> spec;
    if (os.speculation) {
      if (auto m = checkSpeculatedShape(os, ref)) {
        error(*m, rs.context, os.address.toString(), rs.buffer);
        continue;
      }
      spec.emplace(p, ref, *os.speculation);
    }
    if (auto m = diffVal(p, rs.value, os.value, spec ? &*spec : nullptr)) {
      error("stored value diverges: " + *m, rs.context,
            os.address.toString(), rs.buffer);
    }
  }
  return report;
}

Report validateTranslation(const memory::KernelDef& def) {
  return validateTranslation(def, memory::Specialization{});
}

Report validateTranslation(const memory::KernelDef& def,
                           const memory::Specialization& spec) {
  const KernelSummary ref = summarizeKernel(def, /*optimized=*/false, spec);
  const KernelSummary opt = summarizeKernel(def, /*optimized=*/true, spec);
  return compareSummaries(ref, opt);
}

void verifyTranslation(const memory::KernelDef& def) {
  verifyTranslation(def, memory::Specialization{});
}

void verifyTranslation(const memory::KernelDef& def,
                       const memory::Specialization& spec) {
  if (!verifyEnabled()) return;
  const Report report = validateTranslation(def, spec);
  if (!report.hasErrors()) return;
  std::string msg =
      "kernel '" + def.name + "' failed translation validation:\n";
  for (const auto& d : report.diagnostics) {
    if (d.severity != Severity::Error) continue;
    msg += "  " + d.message;
    if (!d.origin.empty()) msg += " [" + d.origin + "]";
    msg += "\n";
  }
  msg += "(set LIFTA_SKIP_VERIFY=1 to bypass)";
  throw AnalysisError(msg);
}

}  // namespace lifta::analysis
