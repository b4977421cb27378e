// The one traversal of LIFT IR that code generation, access analysis and
// translation validation share (paper §IV-B).
//
// Generation is destination-passing: an array-typed expression is walked
// into an output *view*, and the paper's WriteTo/Concat/Skip/ArrayCons
// primitives act purely by rewriting that view (offsetting, aliasing), so
// the in-place scattered updates of §IV-B need no change to the loop nest.
// Walk makes every structural decision of that scheme once: parameter
// binding and the top-level destination, the views of lazy expressions,
// the array walk, the map skeleton (collapsed in-place maps, straight-line
// single-element MapSeq, the guard-speculation site), Let, ReduceSeq,
// index conversion, fresh names and loop domains. Its client decides what
// a scalar value is and what a load, a store and a loop do:
//
//   * codegen's Emitter: a value is C code; it prints the kernel and runs
//     the optimizer;
//   * Collector (access.cpp): a value is an integer when trackable; it
//     records the accesses the bounds and race passes check;
//   * Summarizer (equiv.cpp): a value is a summary tree; it records the
//     stores translation validation compares.
//
// The analyses therefore reason about the very walk that generates the
// code. A client derives from Walk<Client, V> and provides the hooks below;
// every hook is resolved at compile time.
//
//   V scalarParam(const ir::Node& p)        value of scalar parameter p
//   V indexValue(const arith::Expr& i)      value of an Iota element
//   V compute(const ir::Node& n)            Literal, Binary, Unary, Select,
//                                           Cast and UserFunCall nodes;
//                                           notScalar(n) for any other op
//   V load(const view::ViewPtr& v)          read a scalar view
//   V store(const view::ViewPtr& v, V x)    write x; returns the value a
//                                           scalar WriteTo yields
//   std::string constant(const V& x)        the code of ArrayCons(x, n)'s
//                                           constant view, read back by load
//   arith::Expr indexLeaf(const ir::ExprPtr& e)
//                                           index of an expression that is
//                                           not an Int literal, +, -, * or /
//   V letScalar(const std::string& name, const ir::ExprPtr& value)
//                                           binds a scalar let
//   std::string accumulatorName()           names a reduction's accumulator
//                                           (before its init is evaluated)
//   V accumulator(const std::string& name, const ir::Node& reduce,
//                 const V& init)            what the lambda's accumulator
//                                           parameter binds to
//   V reduced(const std::string& name, const V& init,
//             const std::string& iv, V body)
//                                           the reduction's result
//
// and, where the default here does nothing, letName, declarePrivate,
// openLoop, closeLoop, maySpeculate and speculate.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval.hpp"
#include "analysis/speculate.hpp"
#include "arith/expr.hpp"
#include "common/error.hpp"
#include "ir/expr.hpp"
#include "ir/type.hpp"
#include "memory/allocator.hpp"
#include "memory/kernel_def.hpp"
#include "memory/specialization.hpp"
#include "view/view.hpp"

namespace lifta::analysis {

inline bool isIntScalar(const ir::TypePtr& t) {
  return t->isScalar() && t->scalarKind() == ir::ScalarKind::Int;
}

/// The error for an op that has no scalar value.
[[noreturn]] inline void notScalar(const ir::Node& n) {
  throw CodegenError("expression is not scalar-emittable: op #" +
                     std::to_string(static_cast<int>(n.op)));
}

template <class Client, class V>
class Walk {
 protected:
  struct Binding {
    view::ViewPtr view;        // arrays, tuples and element views
    std::optional<V> scalar;   // scalars
  };

  /// `optimized` walks seed the prover and register loop domains in it,
  /// and consider guard speculation; `spec` is substituted into every
  /// loop extent (and by the client into addresses).
  Walk(const memory::KernelDef& def, memory::Specialization spec,
       bool optimized)
      : def_(def), spec_(std::move(spec)), optimized_(optimized) {}

  Client& self() { return static_cast<Client&>(*this); }

  // --- default hooks --------------------------------------------------------

  std::string letName(const ir::Node& binder) { return binder.name; }
  void declarePrivate(const std::string&, const ir::TypePtr&, std::int64_t) {}
  /// Opens the loop of iv over [0, len): a map's (`map` set) or the loop of
  /// an ArrayCons or a reduction (`map` null).
  void openLoop(const ir::Node*, const std::string&, const arith::Expr&) {}
  void closeLoop() {}
  bool maySpeculate() const { return false; }
  /// Walks a map at its speculation site, its loop open; closes the loop.
  void speculate(const ir::Node&, const view::ViewPtr&, const std::string&,
                 const arith::Expr&, const ir::Node*) {}

  // --- setup -----------------------------------------------------------------

  /// Binds the parameters and returns the body's destination: none for an
  /// effect-only body (every write goes through WriteTo), the aliased
  /// parameter, or a fresh `out`.
  view::ViewPtr bindKernel() {
    for (const auto& p : def_.params) {
      if (!p->type->isArray()) {
        env_[p.get()] = Binding{nullptr, self().scalarParam(*p)};
        continue;
      }
      const arith::Expr count = p->type->flatCount();
      noteSizeVars(count);
      extents_[p->name] = spec_.subst(count);
      // Size parameters in array extents are nonnegative by construction.
      if (optimized_) {
        for (const auto& v : count.freeVars()) prover_.assumeAtLeast(v, 0);
      }
      env_[p.get()] = Binding{view::memView(p->name, p->type), {}};
    }
    if (memory::isEffectOnly(def_.body)) return nullptr;
    if (def_.outAliasParam) {
      return env_.at(findParam(*def_.outAliasParam).get()).view;
    }
    const arith::Expr count = def_.body->type->flatCount();
    noteSizeVars(count);
    extents_["out"] = spec_.subst(count);
    return view::memView("out", def_.body->type);
  }

  const ir::ExprPtr& findParam(const std::string& name) const {
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

  // --- names and domains -----------------------------------------------------

  std::string fresh(const std::string& base) {
    return base + "_" + std::to_string(counter_++);
  }

  void noteSizeVars(const arith::Expr& e) {
    for (const auto& v : e.freeVars()) sizeNames_.insert(v);
  }

  /// Registers loop variable iv: inside the body iv is in [0, len-1] and
  /// the range is nonempty. The analyses prove under this domain, and an
  /// optimizing walk's prover licenses its rewrites from it.
  void enterLoop(const std::string& iv, const arith::Expr& len) {
    const Domain d{arith::Expr(0), len - arith::Expr(1), true};
    domains_[iv] = d;
    noteSizeVars(len);
    if (optimized_) {
      prover_.setDomain(iv, d);
      prover_.assumeNonNegative(len - arith::Expr(1));
    }
  }

  /// The size parameters: the names in array extents and loop bounds that
  /// are neither loop or guard variables nor `isLocal` (the client's
  /// let-defined and loaded names).
  template <class IsLocal>
  std::set<std::string> sizeParams(const IsLocal& isLocal) const {
    std::set<std::string> out;
    for (const auto& v : sizeNames_) {
      if (!domains_.count(v) && !isLocal(v)) out.insert(v);
    }
    return out;
  }

  // --- scalars ---------------------------------------------------------------

  V scalar(const ir::ExprPtr& e) {
    const ir::Node& n = *e;
    switch (n.op) {
      case ir::Op::Param: {
        auto it = env_.find(&n);
        if (it == env_.end()) {
          throw CodegenError("unbound parameter: " + n.name);
        }
        if (it->second.view) return self().load(it->second.view);
        return *it->second.scalar;
      }
      case ir::Op::Get:
        // Projection of a zipped element or a constructed tuple.
        if (n.args[0]->op == ir::Op::MakeTuple) {
          return scalar(
              n.args[0]->args[static_cast<std::size_t>(n.tupleIndex)]);
        }
        return self().load(
            view::tupleComponentView(viewOf(n.args[0]), n.tupleIndex));
      case ir::Op::ArrayAccess:
        return self().load(
            view::accessView(viewOf(n.args[0]), indexOf(n.args[1])));
      case ir::Op::Let:
        let(n);
        return scalar(n.args[2]);
      case ir::Op::Reduce:
        return reduce(n);
      case ir::Op::WriteTo: {
        // Scalar in-place update: the destination is an element position.
        V value = scalar(n.args[1]);
        return self().store(viewOf(n.args[0]), std::move(value));
      }
      default:
        return self().compute(n);
    }
  }

  /// Converts a scalar Int expression into a symbolic index: literals and
  /// +, -, *, / structurally, anything else through the client.
  arith::Expr indexOf(const ir::ExprPtr& e) {
    const ir::Node& n = *e;
    if (n.op == ir::Op::Literal && n.literalKind == ir::ScalarKind::Int) {
      return arith::Expr(static_cast<std::int64_t>(n.literalValue));
    }
    if (n.op == ir::Op::Binary) {
      switch (n.bin) {
        case ir::BinOp::Add:
          return indexOf(n.args[0]) + indexOf(n.args[1]);
        case ir::BinOp::Sub:
          return indexOf(n.args[0]) - indexOf(n.args[1]);
        case ir::BinOp::Mul:
          return indexOf(n.args[0]) * indexOf(n.args[1]);
        case ir::BinOp::Div:
          return indexOf(n.args[0]) / indexOf(n.args[1]);
        default:
          break;
      }
    }
    return self().indexLeaf(e);
  }

  // --- views -----------------------------------------------------------------

  /// The view of a lazy expression (one that describes data without
  /// computing it). Other inputs must be bound through Let.
  view::ViewPtr viewOf(const ir::ExprPtr& e) {
    const ir::Node& n = *e;
    switch (n.op) {
      case ir::Op::Param: {
        auto it = env_.find(&n);
        if (it == env_.end() || !it->second.view) {
          throw CodegenError("parameter '" + n.name +
                             "' is not bound to a view");
        }
        return it->second.view;
      }
      case ir::Op::Zip: {
        std::vector<view::ViewPtr> children;
        children.reserve(n.args.size());
        for (const auto& a : n.args) children.push_back(viewOf(a));
        return view::zipView(std::move(children), n.type);
      }
      case ir::Op::Slide:
        return view::slideView(viewOf(n.args[0]), n.size1, n.size2);
      case ir::Op::Pad:
        return view::padView(viewOf(n.args[0]), n.size1, n.size2, n.padMode);
      case ir::Op::Split:
        return view::splitView(viewOf(n.args[0]), n.size1);
      case ir::Op::Join:
        return view::joinView(viewOf(n.args[0]));
      case ir::Op::Transpose:
        return view::transposeView(viewOf(n.args[0]));
      case ir::Op::Slide3:
        return view::slide3View(viewOf(n.args[0]), n.size1, n.size2);
      case ir::Op::Pad3:
        return view::pad3View(viewOf(n.args[0]), n.size1, n.padMode);
      case ir::Op::Iota:
        return view::iotaView(n.size1);
      case ir::Op::Get:
        return view::tupleComponentView(viewOf(n.args[0]), n.tupleIndex);
      case ir::Op::ArrayAccess:
        return view::accessView(viewOf(n.args[0]), indexOf(n.args[1]));
      case ir::Op::WriteTo:
        return viewOf(n.args[0]);
      case ir::Op::ArrayCons:
        return view::constantView(self().constant(scalar(n.args[0])), n.type);
      default:
        throw CodegenError(
            "expression cannot be used as a view; materialize it with Let "
            "(op #" + std::to_string(static_cast<int>(n.op)) + ")");
    }
  }

  /// Binds a lambda parameter to the `index`-th element of `input`.
  void bindElement(const ir::ExprPtr& param, const ir::ExprPtr& input,
                   const arith::Expr& index) {
    if (input->op == ir::Op::Iota) {
      // The element of an index range *is* the loop index; binding the raw
      // index keeps generated subscripts clean (G[(g_0 + M*b)] rather than
      // a chain of cast temporaries).
      env_[param.get()] = Binding{nullptr, self().indexValue(index)};
    } else if (input->op == ir::Op::ArrayCons) {
      env_[param.get()] = Binding{nullptr, scalar(input->args[0])};
    } else {
      // Scalar elements stay views, so every use re-resolves the load.
      env_[param.get()] =
          Binding{view::accessView(viewOf(input), index), {}};
    }
  }

  // --- arrays ----------------------------------------------------------------

  /// Walks an array-typed (or effect-only) expression into `dest`; a null
  /// `dest` means the value is produced for its WriteTo effects alone.
  void walkArray(const ir::ExprPtr& e, view::ViewPtr dest) {
    const ir::Node& n = *e;
    switch (n.op) {
      case ir::Op::Map:
        walkMap(n, dest);
        return;

      case ir::Op::Concat: {
        if (!dest) throw CodegenError("Concat requires a destination");
        arith::Expr offset(0);
        for (const auto& child : n.args) {
          // Table I: Skip generates no code; it only advances the offset.
          if (child->op != ir::Op::Skip) {
            walkArray(child, view::offsetView(dest, offset));
          }
          offset = offset + child->type->size();
        }
        return;
      }

      case ir::Op::ArrayCons: {
        if (!dest) throw CodegenError("ArrayCons requires a destination");
        // The element is evaluated once, before the loop; the straight-line
        // test reads the extent as written.
        V elem = scalar(n.args[0]);
        if (n.size1.isConst(1)) {
          self().store(view::accessView(dest, arith::Expr(0)), std::move(elem));
          return;
        }
        const arith::Expr len = spec_.subst(n.size1);
        const std::string iv = fresh("i");
        self().openLoop(nullptr, iv, len);
        enterLoop(iv, len);
        self().store(view::accessView(dest, arith::Expr::var(iv)),
                     std::move(elem));
        self().closeLoop();
        return;
      }

      case ir::Op::WriteTo: {
        // Redirect output into the destination's own memory (§IV-B: "sets
        // the outputView of the second argument to the inputView of the
        // first argument").
        const view::ViewPtr redirected = viewOf(n.args[0]);
        if (n.args[1]->type->isScalar()) {
          scalar(e);
          return;
        }
        walkArray(n.args[1], redirected);
        return;
      }

      case ir::Op::Skip:
        throw CodegenError("Skip may only appear inside Concat");

      case ir::Op::Let:
        let(n);
        walkArray(n.args[2], std::move(dest));
        return;

      case ir::Op::MakeTuple:
        for (const auto& comp : n.args) component(comp);
        return;

      default:
        throw CodegenError("array expression cannot be emitted: op #" +
                           std::to_string(static_cast<int>(n.op)));
    }
  }

  /// A tuple component in effect position: a scalar WriteTo or a nested
  /// effect-only array (Listing 8's Tuple of WriteTo results).
  void component(const ir::ExprPtr& comp) {
    if (comp->type->isScalar()) {
      scalar(comp);
      return;
    }
    walkArray(comp, nullptr);
  }

  void walkMap(const ir::Node& n, const view::ViewPtr& dest) {
    // Specialized before the straight-line test, so a map a specialization
    // makes single-element is straight-line in every client.
    const arith::Expr len = spec_.subst(n.args[0]->type->size());
    const ir::ExprPtr& body = n.lambda->body;
    // Collapsed in-place mode (paper §IV-B2): the lambda produces, via
    // Concat/Skip, an array that *types* as the whole destination; every
    // iteration then writes into the same buffer rather than into row i.
    const bool collapsed = dest != nullptr && body->type != nullptr &&
                           body->type->isArray() &&
                           ir::typeEquals(dest->type, body->type);
    // A sequential map over a single element (the ArrayCons(x, 1) idiom of
    // §IV-B2) is straight-line code, as in the paper's generated code.
    if (n.mapKind == ir::MapKind::Seq && len.isConst(1)) {
      mapIteration(n, dest, collapsed, arith::Expr(0));
      return;
    }
    if (n.mapKind != ir::MapKind::Glb && n.mapKind != ir::MapKind::Seq) {
      throw CodegenError("MapWrg/MapLcl require local-memory support, which "
                         "the barrier-free generator does not emit");
    }
    const std::string iv = fresh(n.mapKind == ir::MapKind::Glb ? "g" : "i");
    self().openLoop(&n, iv, len);
    enterLoop(iv, len);
    // Guard speculation (analysis/speculate.hpp) applies to the chunk-
    // scheduled maps of specialized kernels on optimizing walks.
    if (optimized_ && n.mapKind == ir::MapKind::Glb && n.mapDim == 0 &&
        dest && !collapsed && !spec_.empty() && self().maySpeculate()) {
      if (const ir::Node* select = speculationCandidate(body)) {
        self().speculate(n, dest, iv, len, select);
        return;
      }
    }
    mapIteration(n, dest, collapsed, arith::Expr::var(iv));
    self().closeLoop();
  }

  /// One iteration of a map body at `index`: a scalar body is stored into
  /// its slot, a tuple body acts through its effects, an array body is
  /// walked into its element (or, collapsed, the whole destination).
  void mapIteration(const ir::Node& n, const view::ViewPtr& dest,
                    bool collapsed, const arith::Expr& index) {
    const ir::ExprPtr& body = n.lambda->body;
    bindElement(n.lambda->params[0], n.args[0], index);
    if (body->type->isScalar()) {
      // Without a destination the body acts through WriteTo alone.
      V value = scalar(body);
      if (dest) self().store(view::accessView(dest, index), std::move(value));
    } else if (body->type->isTuple()) {
      if (body->op == ir::Op::MakeTuple) {
        for (const auto& comp : body->args) component(comp);
      } else if (body->op == ir::Op::Let) {
        walkArray(body, nullptr);
      } else {
        throw CodegenError("tuple-typed map body must be a Tuple or Let");
      }
    } else {
      view::ViewPtr elementDest;
      if (collapsed) {
        elementDest = dest;
      } else if (dest) {
        elementDest = view::accessView(dest, index);
      }
      walkArray(body, elementDest);
    }
  }

  // --- Let and ReduceSeq -----------------------------------------------------

  /// `val name = value`. A scalar binds through the client; a lazy array
  /// (a view over existing memory) binds directly, with no copy; any other
  /// array is materialized into a private array, which needs a
  /// compile-time extent (e.g. the per-branch ODE state copies of FD-MM,
  /// Listing 4's _g1/_v2).
  void let(const ir::Node& n) {
    const ir::ExprPtr& binder = n.args[0];
    const ir::ExprPtr& value = n.args[1];
    const std::string name = self().letName(*binder);
    if (value->type->isScalar()) {
      env_[binder.get()] = Binding{nullptr, self().letScalar(name, value)};
      return;
    }
    if (!value->type->isArray()) {
      throw CodegenError("let of tuple values is not supported");
    }
    switch (value->op) {
      case ir::Op::Param:
      case ir::Op::Zip:
      case ir::Op::Slide:
      case ir::Op::Pad:
      case ir::Op::Split:
      case ir::Op::Join:
      case ir::Op::Transpose:
      case ir::Op::Slide3:
      case ir::Op::Pad3:
      case ir::Op::Iota:
      case ir::Op::Get:
      case ir::Op::ArrayAccess:
      case ir::Op::ArrayCons:
        env_[binder.get()] = Binding{viewOf(value), {}};
        return;
      default:
        break;
    }
    const arith::Expr count = value->type->flatCount();
    if (!count.isConst()) {
      throw CodegenError("private array '" + binder->name +
                         "' must have a compile-time extent, got " +
                         count.toString());
    }
    extents_[name] = count;
    self().declarePrivate(name, value->type, count.constValue());
    const view::ViewPtr memory = view::memView(name, value->type);
    walkArray(value, memory);
    env_[binder.get()] = Binding{memory, {}};
  }

  /// ReduceSeq: the accumulator is named, then its initial value is
  /// evaluated, then the loop variable is named.
  V reduce(const ir::Node& n) {
    const std::string acc = self().accumulatorName();
    const V init = scalar(n.args[0]);
    V accValue = self().accumulator(acc, n, init);
    const ir::ExprPtr& input = n.args[1];
    const std::string iv = fresh("r");
    const arith::Expr len = spec_.subst(input->type->size());
    self().openLoop(nullptr, iv, len);
    enterLoop(iv, len);
    bindElement(n.lambda->params[1], input, arith::Expr::var(iv));
    env_[n.lambda->params[0].get()] = Binding{nullptr, std::move(accValue)};
    V result = self().reduced(acc, init, iv, scalar(n.lambda->body));
    self().closeLoop();
    return result;
  }

  const memory::KernelDef& def_;
  const memory::Specialization spec_;
  const bool optimized_;
  Prover prover_;
  std::map<const ir::Node*, Binding> env_;
  /// Loop variables (and the clients' guard variables) with their domains.
  std::map<std::string, Domain> domains_;
  /// Flat element count of every buffer the kernel names: its array
  /// parameters, `out` and its private arrays (specialized).
  std::map<std::string, arith::Expr> extents_;
  std::set<std::string> sizeNames_;  // every name in an extent or bound
  int counter_ = 0;
};

}  // namespace lifta::analysis
