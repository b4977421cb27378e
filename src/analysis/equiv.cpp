#include "analysis/equiv.hpp"

#include <utility>

#include "analysis/simplify.hpp"
#include "analysis/verify.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "ir/typecheck.hpp"
#include "memory/allocator.hpp"
#include "view/view.hpp"

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

/// Symbolic evaluator producing a KernelSummary. The traversal mirrors
/// codegen::Emitter one-for-one (same structural decisions: collapsed maps,
/// straight-line single-element MapSeq, lazy lets, Concat offsets, element-
/// before-loop ArrayCons order) so the summary describes the program the
/// emitter generates, not a lookalike. Uses view::resolveAccess — the same
/// structured resolution the optimizing emitter prints from.
class Summarizer {
 public:
  Summarizer(const memory::KernelDef& def, bool optimized,
             const memory::Specialization& spec = {})
      : def_(def), optimized_(optimized), spec_(spec) {}

  KernelSummary run() {
    ir::typecheck(def_.body);
    summary_.kernelName = def_.name;
    summary_.optimized = optimized_;

    for (const auto& p : def_.params) {
      if (p->type->isArray()) {
        env_[p.get()] = Binding{view::memView(p->name, p->type), {}};
        noteSizeVars(p->type->flatCount());
        summary_.extents[p->name] = spec_.subst(p->type->flatCount());
        if (optimized_) {
          // Identical seeding to Emitter::seedProver: size parameters in
          // array extents are nonnegative by construction.
          for (const auto& v : p->type->flatCount().freeVars()) {
            prover_.assumeAtLeast(v, 0);
          }
        }
      } else if (isIntScalar(p->type)) {
        // Specialized int scalars bind to their constant, exactly as the
        // emitter's scalarParamCode folds them into index algebra.
        auto si = spec_.ints.find(p->name);
        const Expr iv = si != spec_.ints.end() ? Expr(si->second)
                                               : Expr::var(p->name);
        env_[p.get()] = Binding{nullptr, EV{makeIndex(iv), iv}};
      } else {
        auto sr = spec_.reals.find(p->name);
        const std::string code =
            sr != spec_.reals.end()
                ? enclose("(",
                          memory::Specialization::realLiteral(sr->second,
                                                              def_.real),
                          ")")
                : p->name;
        env_[p.get()] = Binding{nullptr, EV{makeLit(code), {}}};
      }
    }

    ViewPtr topDest;
    if (memory::isEffectOnly(def_.body)) {
      // All writes happen through WriteTo destinations.
    } else if (def_.outAliasParam) {
      topDest = env_.at(findParam(*def_.outAliasParam).get()).view;
    } else {
      topDest = view::memView("out", def_.body->type);
      noteSizeVars(def_.body->type->flatCount());
      summary_.extents["out"] = spec_.subst(def_.body->type->flatCount());
    }
    collectArray(def_.body, topDest);

    finalizeSizeVars();
    return std::move(summary_);
  }

 private:
  /// A value in flight: the summary tree plus, when the scalar is an
  /// integer the index algebra can follow, its arith::Expr form.
  struct EV {
    SummaryValPtr val;
    std::optional<Expr> ival;
  };
  struct Binding {
    ViewPtr view;
    std::optional<EV> scalar;
  };

  static bool isIntScalar(const ir::TypePtr& t) {
    return t->isScalar() && t->scalarKind() == ir::ScalarKind::Int;
  }

  const ExprPtr& findParam(const std::string& name) const {
    for (const auto& p : def_.params) {
      if (p->name == name) return p;
    }
    throw CodegenError("unknown parameter: " + name);
  }

  bool isParam(const std::string& name) const {
    for (const auto& p : def_.params) {
      if (p->name == name) return true;
    }
    return false;
  }

  std::string fresh(const std::string& base) {
    return base + "_" + std::to_string(counter_++);
  }

  void noteSizeVars(const Expr& e) {
    for (const auto& v : e.freeVars()) rawSizeVars_.insert(v);
  }

  void finalizeSizeVars() {
    for (const auto& v : rawSizeVars_) {
      if (summary_.domains.count(v) || atoms_.count(v) ||
          summary_.letIndex.count(v)) {
        continue;
      }
      summary_.sizeVars.insert(v);
    }
  }

  void registerLoop(const std::string& iv, const Expr& len) {
    summary_.domains[iv] = Domain{Expr(0), len - Expr(1), true};
    noteSizeVars(len);
    if (optimized_) {
      // Identical to Emitter::enterLoopDomain: iv in [0, len-1], nonempty.
      prover_.setDomain(iv, Domain{Expr(0), len - Expr(1), true});
      prover_.assumeNonNegative(len - Expr(1));
    }
  }

  // --- access resolution ---------------------------------------------------

  Expr atomFor(const std::string& mem, const Expr& rawIndex) {
    const std::string key = mem + "@" + rawIndex.toString();
    auto it = atomCache_.find(key);
    if (it != atomCache_.end()) return Expr::var(it->second);
    std::string name = preferredAtom_;
    preferredAtom_.clear();
    if (name.empty() || atoms_.count(name) || summary_.domains.count(name) ||
        summary_.letIndex.count(name)) {
      name = fresh("ld");
    }
    atoms_.insert(name);
    atomCache_.emplace(key, name);
    return Expr::var(name);
  }

  std::vector<ValGuard> processGuards(const std::vector<view::AccessGuard>& in) {
    std::vector<ValGuard> out;
    out.reserve(in.size());
    for (const auto& g : in) {
      ValGuard vg;
      // Specialization substitutes before simplification, mirroring the
      // emitter's accessCode; both walks see the same substituted guard.
      const Expr adjusted = spec_.subst(g.adjusted);
      vg.adjusted = optimized_ ? simplifyIndex(adjusted, prover_) : adjusted;
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

  /// Resolves a scalar view read into a value, applying the optimizer's
  /// address/guard pipeline when summarizing the optimized emission.
  EV loadVal(const ViewPtr& v) {
    view::ResolvedAccess a = view::resolveAccess(v, /*forStore=*/false);
    EV ev;
    switch (a.kind) {
      case view::ResolvedAccess::Kind::Iota: {
        const Expr raw = spec_.subst(a.index);
        const Expr ix = optimized_ ? simplifyIndex(raw, prover_) : raw;
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
        const Expr addr = optimized_ ? simplifyIndex(raw, prover_) : raw;
        ev.val = makeLoad(a.mem, addr);
        if (v->type && isIntScalar(v->type)) ev.ival = atomFor(a.mem, raw);
        // Mirrors the emitter's accessCode: the probe sees what it prints.
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

  void recordStore(const ViewPtr& v, const EV& value) {
    view::ResolvedAccess a = view::resolveAccess(v, /*forStore=*/true);
    if (a.kind != view::ResolvedAccess::Kind::Mem) {
      throw CodegenError("store destination did not resolve to memory");
    }
    StoreSummary s;
    s.buffer = a.mem;
    const Expr raw = spec_.subst(a.index);
    s.address = optimized_ ? simplifyIndex(raw, prover_) : raw;
    s.value = value.val ? value.val : makeLit("?");
    s.context = "store " + a.mem + "[" + a.index.toString() + "]";
    summary_.stores.push_back(std::move(s));
  }

  // --- scalar walk ---------------------------------------------------------

  EV evalVal(const ExprPtr& e) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Param: {
        auto it = env_.find(&n);
        if (it == env_.end()) throw CodegenError("unbound parameter: " + n.name);
        if (it->second.view) return loadVal(it->second.view);
        return it->second.scalar.value_or(EV{makeLit(n.name), {}});
      }

      case Op::Literal:
        if (n.literalKind == ir::ScalarKind::Int) {
          const Expr c(static_cast<std::int64_t>(n.literalValue));
          return EV{makeIndex(c), c};
        }
        return EV{makeLit(strformat("%.17g", n.literalValue)), {}};

      case Op::Binary: {
        EV a = evalVal(n.args[0]);
        EV b = evalVal(n.args[1]);
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
        EV a = evalVal(n.args[0]);
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
        EV c = evalVal(n.args[0]);
        arm(1);
        EV t = evalVal(n.args[1]);
        arm(2);
        EV f = evalVal(n.args[2]);
        arm(-1);
        return EV{makeApply("select", {c.val, t.val, f.val}), {}};
      }

      case Op::Cast: {
        EV a = evalVal(n.args[0]);
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
        for (const auto& a : n.args) args.push_back(evalVal(a).val);
        return EV{makeApply("call " + n.userFun->name, std::move(args)), {}};
      }

      case Op::Get: {
        if (n.args[0]->op == Op::MakeTuple) {
          return evalVal(
              n.args[0]->args[static_cast<std::size_t>(n.tupleIndex)]);
        }
        return loadVal(
            view::tupleComponentView(viewOf(n.args[0]), n.tupleIndex));
      }

      case Op::ArrayAccess:
        return loadVal(view::accessView(viewOf(n.args[0]), indexOf(n.args[1])));

      case Op::Let: {
        collectLet(e);
        return evalVal(n.args[2]);
      }

      case Op::Reduce:
        return evalReduce(e);

      case Op::WriteTo: {
        EV value = evalVal(n.args[1]);
        recordStore(viewOf(n.args[0]), value);
        return value;
      }

      default:
        throw CodegenError("expression is not scalar-emittable: op #" +
                           std::to_string(static_cast<int>(n.op)));
    }
  }

  EV evalReduce(const ExprPtr& e) {
    const Node& n = *e;
    // Emitter name order: accumulator, then init emission, then loop var.
    const std::string acc = fresh("acc");
    EV init = evalVal(n.args[0]);
    const ExprPtr& input = n.args[1];
    const std::string iv = fresh("r");
    registerLoop(iv, spec_.subst(input->type->size()));
    bindElement(n.lambda->params[1], input, Expr::var(iv));
    env_[n.lambda->params[0].get()] = Binding{nullptr, EV{makeLit(acc), {}}};
    EV body = evalVal(n.lambda->body);
    return EV{makeApply("reduce " + acc + " " + iv, {init.val, body.val}), {}};
  }

  void collectLet(const ExprPtr& e) {
    const Node& n = *e;
    const ExprPtr& binder = n.args[0];
    const ExprPtr& value = n.args[1];
    if (value->type->isScalar()) {
      const bool pureLoad = value->op == Op::Param ||
                            value->op == Op::ArrayAccess ||
                            value->op == Op::Get;
      if (pureLoad && isIntScalar(value->type)) {
        // Loaded opaque integers adopt the binder's name, the same
        // unification the access collector performs, so summary addresses
        // read like the emitted code.
        preferredAtom_ = binder->name;
      }
      lastIota_ = nullptr;
      EV v = evalVal(value);
      preferredAtom_.clear();
      if (isIntScalar(value->type)) {
        const Expr self = Expr::var(binder->name);
        if (v.ival && !(*v.ival == self)) {
          summary_.letIndex[binder->name] = *v.ival;
        }
        // Mirrors the emitter's emitLet: a let holding an Iota element read.
        if (probe_ && lastIota_ && v.val == lastIota_) {
          probe_->iotaLets[binder->name] = *v.ival;
        }
        // The emitter binds the value to a C local and treats the name as
        // opaque in index algebra; mirror that with ival = the binder name,
        // but keep the full computation tree for value comparison.
        env_[binder.get()] = Binding{nullptr, EV{v.val, self}};
      } else {
        env_[binder.get()] = Binding{nullptr, EV{v.val, {}}};
      }
      return;
    }
    if (value->type->isArray()) {
      switch (value->op) {
        case Op::Param:
        case Op::Zip:
        case Op::Slide:
        case Op::Pad:
        case Op::Split:
        case Op::Join:
        case Op::Transpose:
        case Op::Slide3:
        case Op::Pad3:
        case Op::Iota:
        case Op::Get:
        case Op::ArrayAccess:
        case Op::ArrayCons:
          env_[binder.get()] = Binding{viewOf(value), {}};
          return;
        default:
          break;
      }
      const Expr count = value->type->flatCount();
      if (!count.isConst()) {
        throw CodegenError("private array '" + binder->name +
                           "' must have a compile-time extent, got " +
                           count.toString());
      }
      summary_.extents[binder->name] = count;
      collectArray(value, view::memView(binder->name, value->type));
      env_[binder.get()] =
          Binding{view::memView(binder->name, value->type), {}};
      return;
    }
    throw CodegenError("let of tuple values is not supported");
  }

  // --- index conversion ----------------------------------------------------

  Expr indexOf(const ExprPtr& e) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Literal:
        if (n.literalKind == ir::ScalarKind::Int) {
          return Expr(static_cast<std::int64_t>(n.literalValue));
        }
        break;
      case Op::Param: {
        auto it = env_.find(&n);
        if (it != env_.end() && !it->second.view && it->second.scalar &&
            it->second.scalar->ival) {
          return *it->second.scalar->ival;
        }
        break;
      }
      case Op::Binary:
        switch (n.bin) {
          case ir::BinOp::Add:
            return indexOf(n.args[0]) + indexOf(n.args[1]);
          case ir::BinOp::Sub:
            return indexOf(n.args[0]) - indexOf(n.args[1]);
          case ir::BinOp::Mul:
            return indexOf(n.args[0]) * indexOf(n.args[1]);
          case ir::BinOp::Div:
            return arith::div(indexOf(n.args[0]), indexOf(n.args[1]));
          default:
            break;
        }
        break;
      default:
        break;
    }
    EV v = evalVal(e);
    if (v.ival) return *v.ival;
    return Expr::var(fresh("ix"));
  }

  // --- views ---------------------------------------------------------------

  ViewPtr viewOf(const ExprPtr& e) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Param: {
        auto it = env_.find(&n);
        if (it == env_.end() || !it->second.view) {
          throw CodegenError("parameter '" + n.name +
                             "' is not bound to a view");
        }
        return it->second.view;
      }
      case Op::Zip: {
        std::vector<ViewPtr> children;
        children.reserve(n.args.size());
        for (const auto& a : n.args) children.push_back(viewOf(a));
        return view::zipView(std::move(children), n.type);
      }
      case Op::Slide:
        return view::slideView(viewOf(n.args[0]), n.size1, n.size2);
      case Op::Pad:
        return view::padView(viewOf(n.args[0]), n.size1, n.size2, n.padMode);
      case Op::Split:
        return view::splitView(viewOf(n.args[0]), n.size1);
      case Op::Join:
        return view::joinView(viewOf(n.args[0]));
      case Op::Transpose:
        return view::transposeView(viewOf(n.args[0]));
      case Op::Slide3:
        return view::slide3View(viewOf(n.args[0]), n.size1, n.size2);
      case Op::Pad3:
        return view::pad3View(viewOf(n.args[0]), n.size1, n.padMode);
      case Op::Iota:
        return view::iotaView(n.size1);
      case Op::Get:
        return view::tupleComponentView(viewOf(n.args[0]), n.tupleIndex);
      case Op::ArrayAccess:
        return view::accessView(viewOf(n.args[0]), indexOf(n.args[1]));
      case Op::WriteTo:
        return viewOf(n.args[0]);
      case Op::ArrayCons: {
        // The emitter evaluates the element here and embeds its C code;
        // stash the value tree behind a unique token so later loads of the
        // constant view recover it.
        EV elem = evalVal(n.args[0]);
        const std::string token = fresh("cv");
        constVals_.emplace(token, elem);
        return view::constantView(token, n.type);
      }
      default:
        throw CodegenError(
            "expression cannot be used as a view; materialize it with Let "
            "(op #" + std::to_string(static_cast<int>(n.op)) + ")");
    }
  }

  void bindElement(const ExprPtr& paramNode, const ExprPtr& input,
                   const Expr& index) {
    const Node& in = *input;
    if (in.op == Op::Iota) {
      env_[paramNode.get()] = Binding{nullptr, EV{makeIndex(index), index}};
      return;
    }
    if (in.op == Op::ArrayCons) {
      env_[paramNode.get()] = Binding{nullptr, evalVal(in.args[0])};
      return;
    }
    env_[paramNode.get()] =
        Binding{view::accessView(viewOf(input), index), {}};
  }

  // --- array walk ----------------------------------------------------------

  void collectArray(const ExprPtr& e, ViewPtr dest) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Map:
        collectMap(e, std::move(dest));
        return;

      case Op::Concat: {
        if (!dest) throw CodegenError("Concat requires a destination");
        Expr offset(0);
        for (const auto& child : n.args) {
          if (child->op == Op::Skip) {
            offset = offset + child->type->size();
            continue;
          }
          collectArray(child, view::offsetView(dest, offset));
          offset = offset + child->type->size();
        }
        return;
      }

      case Op::ArrayCons: {
        if (!dest) throw CodegenError("ArrayCons requires a destination");
        // Emitter order: the element is evaluated once, before the loop.
        // The straight-line check keys on the *raw* extent (the emitter
        // checks n.size1 before substituting), then the loop length is
        // specialized — same structural decision in both.
        EV elem = evalVal(n.args[0]);
        if (n.size1.isConst(1)) {
          recordStore(view::accessView(dest, Expr(0)), elem);
          return;
        }
        const std::string iv = fresh("i");
        registerLoop(iv, spec_.subst(n.size1));
        recordStore(view::accessView(dest, Expr::var(iv)), elem);
        return;
      }

      case Op::WriteTo: {
        const ViewPtr redirected = viewOf(n.args[0]);
        if (n.args[1]->type->isScalar()) {
          evalVal(e);
          return;
        }
        collectArray(n.args[1], redirected);
        return;
      }

      case Op::Skip:
        throw CodegenError("Skip may only appear inside Concat");

      case Op::Let:
        collectLet(e);
        collectArray(n.args[2], std::move(dest));
        return;

      case Op::MakeTuple: {
        for (const auto& comp : n.args) collectComponent(comp);
        return;
      }

      default:
        throw CodegenError("array expression cannot be emitted: op #" +
                           std::to_string(static_cast<int>(n.op)));
    }
  }

  void collectComponent(const ExprPtr& comp) {
    if (comp->type->isScalar()) {
      evalVal(comp);
      return;
    }
    collectArray(comp, nullptr);
  }

  void collectMap(const ExprPtr& e, ViewPtr dest) {
    const Node& n = *e;
    const ExprPtr& input = n.args[0];
    // Substituted before the straight-line check below — the emitter
    // substitutes the map extent at the same point, so both validation
    // walks make the same structural choice for spec'd single-iteration
    // maps.
    const Expr len = spec_.subst(input->type->size());
    const ExprPtr& bodyExpr = n.lambda->body;

    const bool collapsed =
        dest != nullptr && bodyExpr->type != nullptr &&
        bodyExpr->type->isArray() && ir::typeEquals(dest->type, bodyExpr->type);

    if (n.mapKind == ir::MapKind::Seq && len.isConst(1)) {
      collectMapIteration(n, dest, collapsed, Expr(0));
      return;
    }

    std::string iv;
    if (n.mapKind == ir::MapKind::Glb) {
      iv = fresh("g");
    } else if (n.mapKind == ir::MapKind::Seq) {
      iv = fresh("i");
    } else {
      throw CodegenError("MapWrg/MapLcl require local-memory support, which "
                         "the barrier-free generator does not emit");
    }
    // The chunk schedule changes loop geometry, not the per-index work; the
    // emitter registers iv in [0, len-1] either way, and so does the summary.
    registerLoop(iv, len);
    // Guard speculation: the same candidate test, probe and decision as the
    // emitter's chunk-scheduled maps of specialized kernels (codegen
    // emitSpeculatable).
    const ir::Node* select = nullptr;
    if (optimized_ && n.mapKind == ir::MapKind::Glb && n.mapDim == 0 &&
        dest && !collapsed && !spec_.empty() && !probe_) {
      select = speculationCandidate(bodyExpr);
    }
    if (select != nullptr) {
      probe_.emplace();
      probe_->select = select;
    }
    collectMapIteration(n, dest, collapsed, Expr::var(iv));
    if (select == nullptr) return;
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

  void collectMapIteration(const Node& n, const ViewPtr& dest, bool collapsed,
                           const Expr& index) {
    const ExprPtr& input = n.args[0];
    const ExprPtr& bodyExpr = n.lambda->body;
    bindElement(n.lambda->params[0], input, index);

    if (bodyExpr->type->isScalar()) {
      EV code = evalVal(bodyExpr);
      if (dest) {
        recordStore(view::accessView(dest, index), code);
      }
    } else if (bodyExpr->type->isTuple()) {
      if (bodyExpr->op == Op::MakeTuple) {
        for (const auto& comp : bodyExpr->args) collectComponent(comp);
      } else if (bodyExpr->op == Op::Let) {
        collectArray(n.lambda->body, nullptr);
      } else {
        throw CodegenError("tuple-typed map body must be a Tuple or Let");
      }
    } else {
      ViewPtr elementDest;
      if (collapsed) {
        elementDest = dest;
      } else if (dest) {
        elementDest = view::accessView(dest, index);
      }
      collectArray(bodyExpr, elementDest);
    }
  }

  const memory::KernelDef& def_;
  const bool optimized_;
  const memory::Specialization spec_;
  KernelSummary summary_;
  Prover prover_;
  std::map<const Node*, Binding> env_;
  std::map<std::string, std::string> atomCache_;  // buffer@index -> atom name
  std::map<std::string, EV> constVals_;           // ArrayCons token -> value
  std::set<std::string> atoms_;
  std::set<std::string> rawSizeVars_;
  std::string preferredAtom_;
  SummaryValPtr lastIota_;  // the last Iota element read's value node
  std::optional<SpeculationProbe> probe_;
  int counter_ = 0;
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
  Summarizer s(def, optimized);
  return s.run();
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
