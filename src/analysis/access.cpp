#include "analysis/access.hpp"

#include <utility>

#include "analysis/walk.hpp"
#include "ir/typecheck.hpp"

namespace lifta::analysis {

using arith::Expr;
using ir::ExprPtr;
using ir::Node;
using ir::Op;
using view::ViewPtr;

namespace {

/// A scalar's integer value when the index algebra can follow it.
struct SVal {
  std::optional<Expr> expr;
};

/// Runs the shared IR walk (analysis/walk.hpp), recording every access as
/// a symbolic (buffer, flat index, extent) triple.
class Collector : public Walk<Collector, SVal> {
  using Base = Walk<Collector, SVal>;
  friend Base;

 public:
  explicit Collector(const memory::KernelDef& def) : Base(def, {}, false) {}

  KernelAccessInfo run() {
    ir::typecheck(def_.body);
    info_.kernelName = def_.name;
    walkArray(def_.body, bindKernel());
    // Only genuine size parameters may be assumed nonnegative; loop
    // variables, let-defined names and opaque loaded values must not be.
    info_.sizeVars = sizeParams([this](const std::string& v) {
      return info_.atoms.count(v) || info_.defs.count(v);
    });
    info_.domains = std::move(domains_);
    dedupAccesses();
    return std::move(info_);
  }

 private:
  void dedupAccesses() {
    std::set<std::string> seen;
    std::vector<Access> unique;
    for (auto& a : info_.accesses) {
      std::string key = a.buffer + "|" + a.index.toString() + "|" +
                        (a.isWrite ? "w" : "r") + (a.guarded ? "g" : "") +
                        (a.padGuarded ? "p" : "") + (a.isPrivate ? "l" : "");
      if (seen.insert(key).second) unique.push_back(std::move(a));
    }
    info_.accesses = std::move(unique);
  }

  // --- access recording ----------------------------------------------------

  std::optional<view::SymbolicAccess> recordAccess(const ViewPtr& v,
                                                   bool isWrite) {
    view::SymbolicAccess sym = view::resolveSymbolic(v, guardCounter_);
    for (const auto& g : sym.guards) {
      if (!domains_.count(g.var)) {
        // Guard variables stand for the guarded component; domain endpoints
        // are not independently attainable, so mark them inexact (no
        // error-severity verdict may rest on them).
        domains_[g.var] = Domain{Expr(0), g.size - Expr(1), false};
        displaySubst_.emplace(g.var, g.actual);
      }
    }
    if (sym.kind != view::SymbolicAccess::Kind::Mem) return sym;

    Access a;
    a.buffer = sym.mem;
    a.index = sym.index;
    a.extent = sym.extent;
    a.isWrite = isWrite;
    a.guarded = guardDepth_ > 0;
    a.padGuarded = !sym.guards.empty();
    a.isPrivate = privates_.count(sym.mem) > 0;
    a.context = std::string(isWrite ? "write " : "read ") + sym.mem + "[" +
                sym.index.substitute(displaySubst_).toString() + "]";
    info_.accesses.push_back(std::move(a));
    return sym;
  }

  Expr atomFor(const view::SymbolicAccess& sym) {
    const std::string key = sym.mem + "@" + sym.index.toString();
    auto it = atomCache_.find(key);
    if (it != atomCache_.end()) return Expr::var(it->second);

    std::string name = preferredAtom_;
    preferredAtom_.clear();
    if (name.empty() || info_.atoms.count(name) || domains_.count(name) ||
        info_.defs.count(name)) {
      name = fresh("ld");
    }
    OpaqueOrigin origin;
    origin.buffer = sym.mem;
    origin.position = sym.index;
    for (const auto& v : sym.index.freeVars()) {
      if (info_.wiVar && v == *info_.wiVar) {
        origin.positionUsesWorkItem = true;
      } else if (domains_.count(v)) {
        origin.positionUsesLoopVars = true;
      }
    }
    info_.atoms.emplace(name, std::move(origin));
    atomCache_.emplace(key, name);
    return Expr::var(name);
  }

  // --- walk hooks ------------------------------------------------------------

  SVal scalarParam(const Node& p) const {
    if (isIntScalar(p.type)) return SVal{Expr::var(p.name)};
    return {};
  }

  SVal indexValue(const Expr& index) const { return SVal{index}; }

  std::string constant(const SVal&) const { return "0"; }

  /// Resolves a scalar view read: records the access and produces the value.
  SVal load(const ViewPtr& v) {
    auto sym = recordAccess(v, /*isWrite=*/false);
    if (!sym) return {};
    switch (sym->kind) {
      case view::SymbolicAccess::Kind::Iota:
        return SVal{sym->index};
      case view::SymbolicAccess::Kind::Constant:
        return {};
      case view::SymbolicAccess::Kind::Mem:
        if (v->type && isIntScalar(v->type)) return SVal{atomFor(*sym)};
        return {};
    }
    return {};
  }

  SVal store(const ViewPtr& v, SVal value) {
    recordAccess(v, /*isWrite=*/true);
    return value;
  }

  /// Untrackable index (e.g. data-dependent via a Select): a fresh free
  /// variable keeps the analysis sound — nothing can be proven about it.
  Expr indexLeaf(const ExprPtr& e) {
    const SVal v = scalar(e);
    return v.expr ? *v.expr : Expr::var(fresh("ix"));
  }

  SVal compute(const Node& n) {
    switch (n.op) {
      case Op::Literal:
        if (n.literalKind == ir::ScalarKind::Int) {
          return SVal{Expr(static_cast<std::int64_t>(n.literalValue))};
        }
        return {};

      case Op::Binary: {
        SVal a = scalar(n.args[0]);
        SVal b = scalar(n.args[1]);
        if (isIntScalar(n.type) && a.expr && b.expr) {
          switch (n.bin) {
            case ir::BinOp::Add: return SVal{*a.expr + *b.expr};
            case ir::BinOp::Sub: return SVal{*a.expr - *b.expr};
            case ir::BinOp::Mul: return SVal{*a.expr * *b.expr};
            case ir::BinOp::Div: return SVal{arith::div(*a.expr, *b.expr)};
            case ir::BinOp::Min: return SVal{arith::min(*a.expr, *b.expr)};
            case ir::BinOp::Max: return SVal{arith::max(*a.expr, *b.expr)};
            default: break;
          }
        }
        return {};
      }

      case Op::Unary: {
        SVal a = scalar(n.args[0]);
        if (n.un == ir::UnOp::Neg && isIntScalar(n.type) && a.expr) {
          return SVal{Expr(0) - *a.expr};
        }
        return {};
      }

      case Op::Select: {
        scalar(n.args[0]);  // condition reads are unguarded
        ++guardDepth_;
        scalar(n.args[1]);
        scalar(n.args[2]);
        --guardDepth_;
        return {};  // branch-dependent value: not tracked
      }

      case Op::Cast: {
        SVal a = scalar(n.args[0]);
        if (isIntScalar(n.type) && isIntScalar(n.args[0]->type)) return a;
        return {};
      }

      case Op::UserFunCall: {
        for (const auto& a : n.args) scalar(a);
        return {};
      }

      default:
        notScalar(n);
    }
  }

  SVal letScalar(const std::string& name, const ExprPtr& value) {
    const bool pureLoad = value->op == Op::Param ||
                          value->op == Op::ArrayAccess ||
                          value->op == Op::Get;
    if (pureLoad && isIntScalar(value->type)) {
      // Loaded opaque integers adopt the binder's name, so skip-lengths and
      // Concat offsets produced by ir::toArith (which refer to the binder)
      // unify with the access-side atom.
      preferredAtom_ = name;
    }
    const SVal v = scalar(value);
    preferredAtom_.clear();
    if (!isIntScalar(value->type)) return {};
    const Expr named = Expr::var(name);
    if (v.expr && !(*v.expr == named)) info_.defs[name] = *v.expr;
    return SVal{named};
  }

  void declarePrivate(const std::string& name, const ir::TypePtr&,
                      std::int64_t) {
    privates_.insert(name);
  }

  // The accumulator's value is not tracked, and it gets no name.
  std::string accumulatorName() const { return ""; }
  SVal accumulator(const std::string&, const Node&, const SVal&) const {
    return {};
  }
  SVal reduced(const std::string&, const SVal&, const std::string&,
               const SVal&) const {
    return {};
  }

  /// The first MapGlb's variable is the work-item id.
  void openLoop(const Node* map, const std::string& iv, const Expr& len) {
    if (map == nullptr || map->mapKind != ir::MapKind::Glb) return;
    ++info_.glbMapCount;
    if (!info_.wiVar) {
      info_.wiVar = iv;
      info_.wiCount = len;
    }
  }

  KernelAccessInfo info_;
  std::map<std::string, std::string> atomCache_;  // buffer@index -> atom name
  std::map<std::string, Expr> displaySubst_;      // guard var -> actual expr
  std::set<std::string> privates_;
  std::string preferredAtom_;
  int guardCounter_ = 0;
  int guardDepth_ = 0;
};

}  // namespace

KernelAccessInfo collectAccesses(const memory::KernelDef& def) {
  Collector c(def);
  return c.run();
}

}  // namespace lifta::analysis
