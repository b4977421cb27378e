#include "codegen/kernel_codegen.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <vector>

#include "analysis/equiv.hpp"
#include "analysis/interval.hpp"
#include "analysis/simplify.hpp"
#include "analysis/speculate.hpp"
#include "analysis/verify.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "ir/typecheck.hpp"

namespace lifta::codegen {

using ir::ExprPtr;
using ir::Node;
using ir::Op;
using view::ViewPtr;

namespace {

/// Minimum dim-0 items per work item under the optimizer's contiguous-chunk
/// schedule for global loops.
constexpr int kChunk = 64;

bool isIdentifier(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

bool isDecimalInteger(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// Div/Mod can trap (divide by zero) and depend on evaluation context; index
/// terms containing them are never hoisted or named out of their original
/// position unless the simplifier already eliminated them.
bool containsDivMod(const arith::Expr& e) {
  if (e.kind() == arith::Kind::Div || e.kind() == arith::Kind::Mod) {
    return true;
  }
  if (e.kind() == arith::Kind::Const || e.kind() == arith::Kind::Var) {
    return false;
  }
  for (const auto& op : e.operands()) {
    if (containsDivMod(op)) return true;
  }
  return false;
}

class Emitter {
 public:
  Emitter(const memory::KernelDef& def, CodegenOptions opts)
      : def_(def), opts_(opts) {}

  GeneratedKernel run() {
    checkPrecision();
    ir::typecheck(def_.body);
    GeneratedKernel out;
    out.name = def_.name;
    out.plan = memory::planMemory(def_);

    seedProver();
    scopes_.emplace_back();  // function-top scope (level 0)

    bindParams(out.plan);
    emitUnpack(out.plan);

    ViewPtr topDest;
    if (memory::isEffectOnly(def_.body)) {
      // All writes happen through WriteTo destinations.
    } else if (def_.outAliasParam) {
      topDest = env_.at(findParam(*def_.outAliasParam).get()).view;
    } else {
      topDest = view::memView("out", def_.body->type);
    }
    emitArray(def_.body, topDest);

    LIFTA_CHECK(scopes_.size() == 1, "unbalanced codegen scopes");
    out.body = scopes_.front().text.str();
    out.optimized = opts_.optimize;
    if (usedChunk_) out.preferredChunk = kChunk;
    out.source = assemble(out);
    return out;
  }

 private:
  /// Every floating parameter must agree with the kernel's `real` typedef:
  /// a float-typed IR program generated with typedef double (or vice versa)
  /// would silently reinterpret the caller's buffers.
  void checkPrecision() const {
    for (const auto& p : def_.params) {
      const ir::TypePtr scalar =
          p->type->isTuple() ? nullptr : p->type->scalarElem();
      if (scalar == nullptr) continue;
      const ir::ScalarKind k = scalar->scalarKind();
      if ((k == ir::ScalarKind::Float || k == ir::ScalarKind::Double) &&
          k != def_.real) {
        throw CodegenError(
            "parameter '" + p->name + "' is " + scalar->toString() +
            " but the kernel precision (KernelDef::real) is " +
            (def_.real == ir::ScalarKind::Float ? "Float" : "Double"));
      }
    }
  }

  // --- bindings -----------------------------------------------------------

  struct Binding {
    ViewPtr view;            // arrays / tuples
    std::string scalarCode;  // scalars (C expression, usually a local name)
  };

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

  void bindParams(const memory::MemoryPlan& plan) {
    for (const auto& p : def_.params) {
      if (p->type->isArray()) {
        env_[p.get()] = Binding{view::memView(p->name, p->type), ""};
      } else {
        env_[p.get()] = Binding{nullptr, scalarParamCode(p)};
      }
      declared_.insert(p->name);
      varLevel_[p->name] = 0;
    }
    (void)plan;
  }

  /// A scalar parameter's C expression: normally the local unpacked from
  /// the args array; under specialization, the baked literal. Int constants
  /// stay bare decimal so indexExpr folds them into the index algebra; real
  /// constants are parenthesized so negative literals splice safely.
  std::string scalarParamCode(const ExprPtr& p) const {
    if (auto it = opts_.spec.ints.find(p->name); it != opts_.spec.ints.end()) {
      const ir::TypePtr scalar = p->type->isTuple() ? nullptr
                                                    : p->type->scalarElem();
      if (scalar && scalar->scalarKind() == ir::ScalarKind::Int) {
        return std::to_string(it->second);
      }
    }
    if (auto it = opts_.spec.reals.find(p->name);
        it != opts_.spec.reals.end()) {
      return enclose(
          "(", memory::Specialization::realLiteral(it->second, def_.real),
          ")");
    }
    return p->name;
  }

  /// Applies the specialization's int constants to an index expression
  /// (loop bounds, flat addresses, pad guards). A no-op when unspecialized.
  arith::Expr subst(const arith::Expr& e) const { return opts_.spec.subst(e); }

  // --- prover -------------------------------------------------------------

  /// Size parameters appearing in array extents are nonnegative by
  /// construction — the same fact base the analysis passes start from.
  void seedProver() {
    if (!opts_.optimize) return;
    for (const auto& p : def_.params) {
      if (!p->type->isArray()) continue;
      for (const auto& v : p->type->flatCount().freeVars()) {
        prover_.assumeAtLeast(v, 0);
      }
    }
  }

  /// Registers a loop variable's range after its scope was opened. Inside
  /// the body iv is in [0, len-1] and the range is nonempty — exactly the
  /// fact set the verifier's bounds pass uses, so every rewrite licensed
  /// here re-proves there.
  void enterLoopDomain(const std::string& iv, const arith::Expr& len) {
    varLevel_[iv] = curLevel();
    if (!opts_.optimize) return;
    prover_.setDomain(iv, analysis::Domain{arith::Expr(0),
                                           len - arith::Expr(1), true});
    prover_.assumeNonNegative(len - arith::Expr(1));
  }

  // --- output helpers -----------------------------------------------------

  /// A pending block of generated code. Loop scopes buffer their body and
  /// only splice it (after the header) into the parent when they close, so
  /// hoisted declarations appended to an outer scope mid-loop physically
  /// land *before* the loop.
  struct Scope {
    std::string header;  // loop header; emitted at close ("" for the top)
    std::ostringstream text;
    std::map<std::string, std::string> cse;  // canonical expr -> local name
  };

  int curLevel() const { return static_cast<int>(scopes_.size()) - 1; }

  void emitTo(int level, const std::string& s) {
    scopes_[static_cast<std::size_t>(level)].text
        << std::string(static_cast<std::size_t>(level) * 2, ' ') << s << "\n";
  }

  void stmt(const std::string& s) { emitTo(curLevel(), s); }

  void open(const std::string& s) {
    Scope sc;
    sc.header = s;
    scopes_.push_back(std::move(sc));
  }

  void close() {
    Scope sc = std::move(scopes_.back());
    scopes_.pop_back();
    stmt(sc.header + " {");
    scopes_.back().text << sc.text.str();
    stmt("}");
  }

  std::string fresh(const std::string& base) {
    return base + "_" + std::to_string(counter_++);
  }

  void declareLocal(const std::string& name) {
    if (!declared_.insert(name).second) {
      throw CodegenError("duplicate local name in kernel: " + name);
    }
    varLevel_[name] = curLevel();
  }

  std::string realName() const {
    return "real";
  }

  std::string zeroLiteral() const { return "(real)0"; }

  // --- optimized access emission ------------------------------------------

  /// The deepest loop level any variable of `t` is bound at; unknown names
  /// conservatively pin the term to the current level (never hoisted).
  int termLevel(const arith::Expr& t) const {
    int lvl = 0;
    for (const auto& v : t.freeVars()) {
      auto it = varLevel_.find(v);
      lvl = std::max(lvl, it == varLevel_.end() ? curLevel() : it->second);
    }
    return lvl;
  }

  /// Names `e` as a `const long` local in the scope at `level`, reusing an
  /// existing local when the same canonical expression was named there
  /// before. Trivial expressions are returned as-is.
  std::string hoistLocal(int level, const arith::Expr& e) {
    if (e.isConst() || e.kind() == arith::Kind::Var) return e.toString();
    Scope& sc = scopes_[static_cast<std::size_t>(level)];
    const std::string key = e.toString();
    auto it = sc.cse.find(key);
    if (it != sc.cse.end()) return it->second;
    const std::string name = fresh("cse");
    declared_.insert(name);
    varLevel_[name] = level;
    emitTo(level, "const long " + name + " = " + key + ";");
    sc.cse.emplace(key, name);
    return name;
  }

  /// Prints an index expression (optimized path). The additive terms are
  /// partitioned by loop level; the cumulative partial sums invariant at
  /// each outer level become named locals hoisted to that level, so inner
  /// loops only add their own per-iteration terms to a precomputed base.
  std::string indexCode(const arith::Expr& e) {
    if (e.isConst() || e.kind() == arith::Kind::Var) return e.toString();
    if (containsDivMod(e)) return e.toString();  // never lift a possible trap

    const std::vector<arith::Expr> terms =
        e.kind() == arith::Kind::Add ? e.operands()
                                     : std::vector<arith::Expr>{e};
    std::map<int, std::vector<arith::Expr>> byLevel;
    for (const auto& t : terms) byLevel[termLevel(t)].push_back(t);
    const int maxLevel = byLevel.rbegin()->first;

    arith::Expr acc(0);
    bool haveAcc = false;
    for (auto& [lvl, group] : byLevel) {
      arith::Expr sum = arith::add(std::move(group));
      if (haveAcc) sum = acc + sum;
      if (lvl == maxLevel) {
        // Innermost terms: if even they are invariant at the current depth,
        // hoist the whole expression; otherwise print it inline on top of
        // the hoisted base.
        if (lvl < curLevel()) return hoistLocal(lvl, sum);
        return sum.toString();
      }
      acc = arith::Expr::var(hoistLocal(lvl, sum));
      haveAcc = true;
    }
    return e.toString();  // unreachable: the maxLevel group always returns
  }

  /// Optimized twin of view::resolveLoad/resolveStore: simplify the flat
  /// address and the pad guards against the prover's facts, drop guard
  /// sides that are provably true, and print through the CSE/hoisting
  /// index printer. Guard nesting order matches the unoptimized printer.
  std::string accessCode(view::ResolvedAccess a, bool forStore) {
    // Specialization substitutes before simplification so the prover and
    // the simplifier see concrete extents and strides.
    a.index = subst(a.index);
    for (auto& g : a.guards) {
      g.adjusted = subst(g.adjusted);
      g.size = subst(g.size);
    }
    a.index = analysis::simplifyIndex(a.index, prover_);
    for (auto& g : a.guards) {
      g.adjusted = analysis::simplifyIndex(g.adjusted, prover_);
    }
    std::string inner;
    switch (a.kind) {
      case view::ResolvedAccess::Kind::Iota: {
        const std::string index = indexCode(a.index);
        inner = "((int)(" + index + "))";
        lastIota_ = IotaRead{inner, index, a.index};
        break;
      }
      case view::ResolvedAccess::Kind::Constant:
        inner = a.code;
        break;
      case view::ResolvedAccess::Kind::Mem:
        inner = a.mem + "[" + indexCode(a.index) + "]";
        if (!forStore && probe_) {
          probe_->noteLoad(a.mem, a.index, subst(a.extent),
                           !a.guards.empty());
        }
        break;
    }
    if (forStore) return inner;
    // Innermost guard first so the ternaries nest naturally.
    for (auto it = a.guards.rbegin(); it != a.guards.rend(); ++it) {
      const analysis::GuardSides sides =
          analysis::proveGuardSides(it->adjusted, it->size, prover_);
      if (sides.proven()) continue;  // access provably in range
      const std::string adj = indexCode(it->adjusted);
      std::string cond;
      if (sides.lowerProven) {
        cond = adj + " < " + it->size.toString();
      } else if (sides.upperProven) {
        cond = "0 <= " + adj;
      } else {
        cond = "0 <= " + adj + " && " + adj + " < " + it->size.toString();
      }
      inner = "((" + cond + ") ? " + inner + " : " + zeroLiteral() + ")";
    }
    return inner;
  }

  std::string loadCode(const ViewPtr& v) {
    if (!opts_.optimize) return view::resolveLoad(v, zeroLiteral());
    return accessCode(view::resolveAccess(v, /*forStore=*/false), false);
  }

  std::string storeCode(const ViewPtr& v) {
    if (!opts_.optimize) return view::resolveStore(v);
    return accessCode(view::resolveAccess(v, /*forStore=*/true), true);
  }

  // --- scalar literal / op printing ---------------------------------------

  std::string printLiteral(const Node& n) const {
    if (n.literalKind == ir::ScalarKind::Int) {
      return std::to_string(static_cast<std::int64_t>(n.literalValue));
    }
    std::string s = (n.literalKind == ir::ScalarKind::Double)
                        ? strformat("%.17g", n.literalValue)
                        : strformat("%.9g", n.literalValue);
    if (s.find('.') == std::string::npos &&
        s.find('e') == std::string::npos &&
        s.find("inf") == std::string::npos &&
        s.find("nan") == std::string::npos) {
      s += ".0";
    }
    if (n.literalKind == ir::ScalarKind::Float) s += "f";
    return s;
  }

  static const char* binOpToken(ir::BinOp b) {
    switch (b) {
      case ir::BinOp::Add: return "+";
      case ir::BinOp::Sub: return "-";
      case ir::BinOp::Mul: return "*";
      case ir::BinOp::Div: return "/";
      case ir::BinOp::Eq: return "==";
      case ir::BinOp::Ne: return "!=";
      case ir::BinOp::Lt: return "<";
      case ir::BinOp::Le: return "<=";
      case ir::BinOp::Gt: return ">";
      case ir::BinOp::Ge: return ">=";
      case ir::BinOp::And: return "&&";
      case ir::BinOp::Or: return "||";
      default: return nullptr;
    }
  }

  // --- scalar emission -----------------------------------------------------

  /// Emits any statements the scalar expression needs and returns a C
  /// expression for its value.
  std::string emitScalar(const ExprPtr& e) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Param: {
        auto it = env_.find(&n);
        if (it == env_.end()) {
          throw CodegenError("unbound parameter: " + n.name);
        }
        if (it->second.view) {
          return loadCode(it->second.view);
        }
        return it->second.scalarCode;
      }

      case Op::Literal:
        return printLiteral(n);

      case Op::Binary: {
        const std::string a = emitScalar(n.args[0]);
        const std::string b = emitScalar(n.args[1]);
        if (n.bin == ir::BinOp::Min || n.bin == ir::BinOp::Max) {
          const bool isInt =
              n.type->scalarKind() == ir::ScalarKind::Int;
          const char* fn = (n.bin == ir::BinOp::Min)
                               ? (isInt ? "lifta_imin" : "lifta_fmin")
                               : (isInt ? "lifta_imax" : "lifta_fmax");
          return std::string(fn) + "(" + a + ", " + b + ")";
        }
        return "(" + a + " " + binOpToken(n.bin) + " " + b + ")";
      }

      case Op::Unary: {
        const std::string a = emitScalar(n.args[0]);
        return (n.un == ir::UnOp::Neg ? "(-" : "(!") + a + ")";
      }

      case Op::Select: {
        const std::string c = emitScalar(n.args[0]);
        const std::string t = emitScalar(n.args[1]);
        const std::string f = emitScalar(n.args[2]);
        return "(" + c + " ? " + t + " : " + f + ")";
      }

      case Op::Cast: {
        const std::string a = emitScalar(n.args[0]);
        return "((" + ir::cTypeName(n.type->scalarKind(), realName()) + ")" +
               a + ")";
      }

      case Op::UserFunCall: {
        usedFuns_[n.userFun->name] = n.userFun;
        std::vector<std::string> args;
        for (const auto& a : n.args) args.push_back(emitScalar(a));
        return n.userFun->name + "(" + join(args, ", ") + ")";
      }

      case Op::Get: {
        // Projection of a zipped element or a constructed tuple.
        if (n.args[0]->op == Op::MakeTuple) {
          return emitScalar(
              n.args[0]->args[static_cast<std::size_t>(n.tupleIndex)]);
        }
        const ViewPtr v =
            view::tupleComponentView(viewOf(n.args[0]), n.tupleIndex);
        return loadCode(v);
      }

      case Op::ArrayAccess: {
        const ViewPtr v =
            view::accessView(viewOf(n.args[0]), indexExpr(n.args[1]));
        return loadCode(v);
      }

      case Op::Let: {
        emitLet(e);
        return emitScalar(n.args[2]);
      }

      case Op::Reduce:
        return emitReduce(e);

      case Op::WriteTo: {
        // Scalar in-place update: dest is an element position.
        const std::string value = emitScalar(n.args[1]);
        const ViewPtr destView = viewOf(n.args[0]);
        const std::string lhs = storeCode(destView);
        stmt(lhs + " = " + value + ";");
        return lhs;
      }

      default:
        throw CodegenError("expression is not scalar-emittable: op #" +
                           std::to_string(static_cast<int>(n.op)));
    }
  }

  /// Emits `val name = value` bindings. Scalar values become C locals;
  /// array values are materialized into private arrays (compile-time extent,
  /// e.g. the per-branch ODE state copies of FD-MM, Listing 4's _g1/_v2).
  void emitLet(const ExprPtr& e) {
    const Node& n = *e;
    const ExprPtr& binder = n.args[0];
    const ExprPtr& value = n.args[1];
    // The speculated copy of a map body renames its lets: every emitted
    // copy declares its own locals.
    std::string name = binder->name;
    while (speculating_ && declared_.count(name)) name = fresh(binder->name);
    declareLocal(name);
    if (value->type->isScalar()) {
      lastIota_ = IotaRead{};
      const std::string code = emitScalar(value);
      std::string type = ir::cTypeName(value->type->scalarKind(), realName());
      std::string init = code;
      if (!lastIota_.code.empty() && code == lastIota_.code) {
        // The let holds the loop index itself. The speculated copy keeps
        // it 64-bit: g < len <= INT_MAX, so dropping the (int) narrowing is
        // value-preserving, and the loads stay affine in the loop counter.
        if (probe_) probe_->iotaLets[name] = lastIota_.index;
        if (speculating_) {
          type = "long";
          init = lastIota_.indexCode;
        }
      }
      stmt("const " + type + " " + name + " = " + init + ";");
      env_[binder.get()] = Binding{nullptr, name};
      return;
    }
    if (value->type->isArray()) {
      // Lazy values (views over existing memory) bind directly — no copy.
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
          env_[binder.get()] = Binding{viewOf(value), ""};
          return;
        default:
          break;
      }
      const arith::Expr count = value->type->flatCount();
      if (!count.isConst()) {
        throw CodegenError(
            "private array '" + binder->name +
            "' must have a compile-time extent, got " + count.toString());
      }
      stmt(ir::cTypeName(value->type->scalarElem()->scalarKind(), realName()) +
           " " + name + "[" + std::to_string(count.constValue()) + "];");
      emitArray(value, view::memView(name, value->type));
      env_[binder.get()] = Binding{view::memView(name, value->type), ""};
      return;
    }
    throw CodegenError("let of tuple values is not supported");
  }

  std::string emitReduce(const ExprPtr& e) {
    const Node& n = *e;
    const std::string acc = fresh("acc");
    declareLocal(acc);
    const std::string initCode = emitScalar(n.args[0]);
    stmt(ir::cTypeName(n.type->scalarKind(), realName()) + " " + acc + " = " +
         initCode + ";");

    const ExprPtr& input = n.args[1];
    const std::string iv = fresh("r");
    const arith::Expr len = subst(input->type->size());
    open("for (long " + iv + " = 0; " + iv + " < " + len.toString() + "; ++" +
         iv + ")");
    enterLoopDomain(iv, len);
    bindElement(n.lambda->params[1], input, arith::Expr::var(iv));
    env_[n.lambda->params[0].get()] = Binding{nullptr, acc};
    const std::string bodyCode = emitScalar(n.lambda->body);
    stmt(acc + " = " + bodyCode + ";");
    close();
    return acc;
  }

  // --- index conversion ----------------------------------------------------

  /// Converts a scalar Int IR expression into a symbolic index. Simple
  /// expressions translate structurally; anything else is materialized into
  /// a local so the view algebra only ever sees well-formed terms.
  arith::Expr indexExpr(const ExprPtr& e) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Literal:
        if (n.literalKind == ir::ScalarKind::Int) {
          return arith::Expr(static_cast<std::int64_t>(n.literalValue));
        }
        break;
      case Op::Param: {
        const std::string code = emitScalar(e);
        if (isIdentifier(code)) return arith::Expr::var(code);
        if (isDecimalInteger(code)) {
          return arith::Expr(static_cast<std::int64_t>(std::stoll(code)));
        }
        break;
      }
      case Op::Binary: {
        switch (n.bin) {
          case ir::BinOp::Add:
            return indexExpr(n.args[0]) + indexExpr(n.args[1]);
          case ir::BinOp::Sub:
            return indexExpr(n.args[0]) - indexExpr(n.args[1]);
          case ir::BinOp::Mul:
            return indexExpr(n.args[0]) * indexExpr(n.args[1]);
          case ir::BinOp::Div:
            return indexExpr(n.args[0]) / indexExpr(n.args[1]);
          default:
            break;
        }
        break;
      }
      default:
        break;
    }
    // Fallback: evaluate once into a local index variable.
    const std::string code = emitScalar(e);
    const std::string tmp = fresh("ix");
    declareLocal(tmp);
    stmt("const long " + tmp + " = " + code + ";");
    return arith::Expr::var(tmp);
  }

  // --- input views ----------------------------------------------------------

  /// Builds the input view of a "lazy" expression (one that describes data
  /// without computing it). Non-lazy inputs must be bound through Let.
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
        return view::accessView(viewOf(n.args[0]), indexExpr(n.args[1]));
      case Op::WriteTo:
        return viewOf(n.args[0]);
      case Op::ArrayCons:
        return view::constantView(emitScalar(n.args[0]), n.type);
      default:
        throw CodegenError(
            "expression cannot be used as a view; materialize it with Let "
            "(op #" + std::to_string(static_cast<int>(n.op)) + ")");
    }
  }

  /// Binds a lambda parameter to the `index`-th element of `input`.
  void bindElement(const ExprPtr& paramNode, const ExprPtr& input,
                   const arith::Expr& index) {
    const Node& in = *input;
    if (in.op == Op::Iota) {
      // The element of an index range *is* the loop index; binding the raw
      // index keeps generated subscripts clean (G[(g_0 + M*b)] rather than
      // a chain of cast temporaries).
      env_[paramNode.get()] = Binding{nullptr, index.toString()};
      return;
    }
    if (in.op == Op::ArrayCons) {
      env_[paramNode.get()] = Binding{nullptr, emitScalar(in.args[0])};
      return;
    }
    const ViewPtr elem = view::accessView(viewOf(input), index);
    if (elem->type->isScalar()) {
      // Keep scalars as views so repeated uses re-resolve to the same load;
      // the host compiler CSEs them.
      env_[paramNode.get()] = Binding{elem, ""};
    } else {
      env_[paramNode.get()] = Binding{elem, ""};
    }
  }

  // --- array emission --------------------------------------------------------

  /// Emits an array-typed (or effect-only) expression into `dest`.
  /// `dest == nullptr` means the value is produced purely for its WriteTo
  /// side effects.
  void emitArray(const ExprPtr& e, ViewPtr dest) {
    const Node& n = *e;
    switch (n.op) {
      case Op::Map:
        emitMap(e, std::move(dest));
        return;

      case Op::Concat: {
        if (!dest) throw CodegenError("Concat requires a destination");
        arith::Expr offset(0);
        for (const auto& child : n.args) {
          if (child->op == Op::Skip) {
            // Table I: Skip generates no code; it only advances the offset.
            offset = offset + child->type->size();
            continue;
          }
          emitArray(child, view::offsetView(dest, offset));
          offset = offset + child->type->size();
        }
        return;
      }

      case Op::ArrayCons: {
        if (!dest) throw CodegenError("ArrayCons requires a destination");
        const std::string code = emitScalar(n.args[0]);
        if (n.size1.isConst(1)) {
          const ViewPtr slot = view::accessView(dest, arith::Expr(0));
          stmt(storeCode(slot) + " = " + code + ";");
          return;
        }
        const arith::Expr consLen = subst(n.size1);
        const std::string iv = fresh("i");
        open("for (long " + iv + " = 0; " + iv + " < " + consLen.toString() +
             "; ++" + iv + ")");
        enterLoopDomain(iv, consLen);
        const ViewPtr slot = view::accessView(dest, arith::Expr::var(iv));
        stmt(storeCode(slot) + " = " + code + ";");
        close();
        return;
      }

      case Op::WriteTo: {
        // Redirect output into the destination's own memory (§IV-B:
        // "sets the outputView of the second argument to the inputView of
        // the first argument").
        const ViewPtr redirected = viewOf(n.args[0]);
        if (n.args[1]->type->isScalar()) {
          emitScalar(e);
          return;
        }
        emitArray(n.args[1], redirected);
        return;
      }

      case Op::Skip:
        throw CodegenError("Skip may only appear inside Concat");

      case Op::Let:
        emitLet(e);
        emitArray(n.args[2], std::move(dest));
        return;

      case Op::MakeTuple: {
        for (const auto& comp : n.args) emitComponent(comp);
        return;
      }

      default:
        throw CodegenError("array expression cannot be emitted: op #" +
                           std::to_string(static_cast<int>(n.op)));
    }
  }

  /// A tuple component in effect position: scalar WriteTo or nested
  /// effect-only arrays (Listing 8's Tuple of WriteTo results).
  void emitComponent(const ExprPtr& comp) {
    if (comp->type->isScalar()) {
      emitScalar(comp);  // statements (if any) already emitted
      return;
    }
    emitArray(comp, nullptr);
  }

  void emitMap(const ExprPtr& e, ViewPtr dest) {
    const Node& n = *e;
    const ExprPtr& input = n.args[0];
    // Substituted before the straight-line check below; the summarizer
    // substitutes at the same point, so both validation walks make the
    // same structural choice.
    const arith::Expr len = subst(input->type->size());
    const ExprPtr& bodyExpr = n.lambda->body;

    // Collapsed in-place mode (paper §IV-B2): the lambda produces, via
    // Concat/Skip, an array that *types* as the whole destination; every
    // iteration then writes into the same buffer rather than into row i.
    const bool collapsed =
        dest != nullptr && bodyExpr->type != nullptr &&
        bodyExpr->type->isArray() && ir::typeEquals(dest->type, bodyExpr->type);

    // A sequential map over a single element (the ArrayCons(x, 1) idiom of
    // §IV-B2) is emitted straight-line, matching the paper's generated code.
    if (n.mapKind == ir::MapKind::Seq && len.isConst(1)) {
      emitMapIteration(n, dest, collapsed, arith::Expr(0));
      return;
    }

    std::string iv;
    bool chunked = false;
    if (n.mapKind == ir::MapKind::Glb) {
      iv = fresh("g");
      declareLocal(iv);
      const std::string d = std::to_string(n.mapDim);
      chunked = opts_.optimize && n.mapDim == 0;
      if (chunked) {
        // Contiguous-chunk schedule: work item i covers the index range
        // [i*c, min((i+1)*c, len)) with c = max(ceil(len/gsz), chunk).
        // gsz*c >= len and the ranges are disjoint, so every launch
        // geometry covers [0, len) exactly once — the host may (and does)
        // shrink the launch to ~ceil(len/chunk) items to cut per-item
        // dispatch overhead.
        usedChunk_ = true;
        const std::string len_s = len.toString();
        const std::string c = std::to_string(kChunk);
        stmt("const long " + iv + "_n = get_global_size(ctx, 0);");
        stmt("long " + iv + "_c = (" + len_s + " + " + iv + "_n - 1) / " +
             iv + "_n;");
        stmt("if (" + iv + "_c < " + c + ") " + iv + "_c = " + c + ";");
        stmt("const long " + iv + "_lo = get_global_id(ctx, 0) * " + iv +
             "_c;");
        stmt("const long " + iv + "_hi = lifta_imin(" + iv + "_lo + " + iv +
             "_c, " + len_s + ");");
        open("for (long " + iv + " = " + iv + "_lo; " + iv + " < " + iv +
             "_hi; ++" + iv + ")");
      } else {
        open("for (long " + iv + " = get_global_id(ctx, " + d + "); " + iv +
             " < " + len.toString() + "; " + iv +
             " += get_global_size(ctx, " + d + "))");
      }
    } else if (n.mapKind == ir::MapKind::Seq) {
      iv = fresh("i");
      declareLocal(iv);
      open("for (long " + iv + " = 0; " + iv + " < " + len.toString() +
           "; ++" + iv + ")");
    } else {
      throw CodegenError("MapWrg/MapLcl require local-memory support, which "
                         "the barrier-free generator does not emit");
    }
    enterLoopDomain(iv, len);
    // Speculation is a rewrite of the specialized (-O3) tier only: at the
    // generic tier's -O2 the split loop does not vectorize (DESIGN.md §6).
    if (chunked && dest && !collapsed && !opts_.spec.empty() && !probe_ &&
        !speculating_) {
      if (const Node* sel = analysis::speculationCandidate(bodyExpr)) {
        emitSpeculatable(n, dest, iv, len, sel);
        return;
      }
    }
    emitMapIteration(n, dest, collapsed, arith::Expr::var(iv));
    close();
  }

  /// The C code of a select's arms, in emission order.
  struct Arms {
    std::string c, t, f;
  };

  /// Emits the lets a speculation candidate's body opens with, then its
  /// select's arms, telling an attached probe which arm it is in.
  Arms emitSelectArms(const ExprPtr& body) {
    ExprPtr v = body;
    while (v->op == Op::Let) {
      emitLet(v);
      v = v->args[2];
    }
    const auto arm = [this](int a) {
      if (probe_) probe_->arm = a;
    };
    Arms out;
    arm(0);
    out.c = emitScalar(v->args[0]);
    arm(1);
    out.t = emitScalar(v->args[1]);
    arm(2);
    out.f = emitScalar(v->args[2]);
    arm(-1);
    return out;
  }

  /// Guard speculation (DESIGN.md §6) for a chunk-scheduled map storing
  /// select(c, t, f), entered with the chunk loop open. Emits today's
  /// guarded body while probing it; when analysis::speculationRange proves
  /// a middle range [mlo, mhi), the guarded body moves into a two-part loop
  /// over the chunk's edges and a middle loop stores t unconditionally,
  /// then f where !c. Otherwise the guarded loop stays the only one.
  void emitSpeculatable(const Node& n, const ViewPtr& dest,
                        const std::string& iv, const arith::Expr& len,
                        const Node* select) {
    const arith::Expr g = arith::Expr::var(iv);
    const ViewPtr slot = view::accessView(dest, g);
    bindElement(n.lambda->params[0], n.args[0], g);
    probe_.emplace();
    probe_->select = select;
    const Arms guarded = emitSelectArms(n.lambda->body);
    const std::string lhs = storeCode(slot);
    stmt(lhs + " = (" + guarded.c + " ? " + guarded.t + " : " + guarded.f +
         ");");
    const analysis::SpeculationProbe probe = std::move(*probe_);
    probe_.reset();
    const auto range =
        isParam(view::resolveAccess(slot, /*forStore=*/true).mem)
            ? std::nullopt
            : analysis::speculationRange(
                  probe, iv, len, analysis::runtimeInts(def_, opts_.spec));
    if (!range) {
      close();
      return;
    }

    // The split of [lo, hi) is analysis::splitChunk, printed as C; the
    // proven bounds are constants or run-time index expressions.
    Scope edge = std::move(scopes_.back());
    scopes_.pop_back();
    const std::string mlo = analysis::foldBound(range->lower, true).toString();
    const std::string mhi = analysis::foldBound(range->upper, false).toString();
    stmt("const long " + iv + "_mlo = lifta_imax(" + iv + "_lo, " + mlo +
         ");");
    stmt("const long " + iv + "_mhi = lifta_imax(" + iv + "_mlo, lifta_imin(" +
         iv + "_hi, " + mhi + "));");
    open("for (int " + iv + "_p = 0; " + iv + "_p < 2; ++" + iv + "_p)");
    stmt("const long " + iv + "_a = " + iv + "_p ? " + iv + "_mhi : " + iv +
         "_lo;");
    stmt("const long " + iv + "_b = " + iv + "_p ? " + iv +
         "_hi : lifta_imin(" + iv + "_hi, " + mlo + ");");
    edge.header = "for (long " + iv + " = " + iv + "_a; " + iv + " < " + iv +
                  "_b; ++" + iv + ")";
    edge.text.str(indent(edge.text.str(), 2));
    scopes_.push_back(std::move(edge));
    close();
    close();

    open("for (long " + iv + " = " + iv + "_mlo; " + iv + " < " + iv +
         "_mhi; ++" + iv + ")");
    enterLoopDomain(iv, len);
    speculating_ = true;
    const Arms spec = emitSelectArms(n.lambda->body);
    speculating_ = false;
    const std::string specLhs = storeCode(slot);
    stmt(specLhs + " = " + spec.t + ";");
    stmt("if (!(" + spec.c + ")) " + specLhs + " = " + spec.f + ";");
    close();
  }

  void emitMapIteration(const Node& n, const ViewPtr& dest, bool collapsed,
                        const arith::Expr& index) {
    const ExprPtr& input = n.args[0];
    const ExprPtr& bodyExpr = n.lambda->body;
    bindElement(n.lambda->params[0], input, index);

    if (bodyExpr->type->isScalar()) {
      const std::string code = emitScalar(bodyExpr);
      if (dest) {
        const ViewPtr slot = view::accessView(dest, index);
        stmt(storeCode(slot) + " = " + code + ";");
      }
      // Without a destination the body must act through WriteTo; its
      // statements were already emitted.
    } else if (bodyExpr->type->isTuple()) {
      if (bodyExpr->op == Op::MakeTuple) {
        for (const auto& comp : bodyExpr->args) emitComponent(comp);
      } else if (bodyExpr->op == Op::Let) {
        emitArray(bodyExpr, nullptr);
      } else {
        throw CodegenError("tuple-typed map body must be a Tuple or Let");
      }
    } else {
      // Array-typed body.
      ViewPtr elementDest;
      if (collapsed) {
        elementDest = dest;
      } else if (dest) {
        elementDest = view::accessView(dest, index);
      }
      emitArray(bodyExpr, elementDest);
    }
  }

  // --- kernel assembly -------------------------------------------------------

  void emitUnpack(const memory::MemoryPlan& plan) {
    // The kernel ABI never passes the same buffer through two array slots,
    // so the optimizer may promise the compiler non-aliasing pointers.
    const std::string rq = opts_.optimize ? "__restrict " : "";
    for (std::size_t i = 0; i < plan.args.size(); ++i) {
      const auto& a = plan.args[i];
      if (a.isArray) {
        const std::string ty =
            ir::cTypeName(a.type->scalarElem()->scalarKind(), realName());
        const std::string cv = a.writable ? "" : "const ";
        stmt(cv + ty + "* " + rq + a.name + " = (" + cv + ty +
             "*)lifta_args[" + std::to_string(i) + "];");
      } else {
        const std::string ty =
            ir::cTypeName(a.type->scalarKind(), realName());
        stmt("const " + ty + " " + a.name + " = *(const " + ty +
             "*)lifta_args[" + std::to_string(i) + "];");
      }
      varLevel_[a.name] = 0;
    }
  }

  std::string assemble(const GeneratedKernel& k) {
    std::ostringstream src;
    src << "// generated by lift-acoustics from LIFT IR — do not edit\n";
    if (!opts_.spec.empty()) {
      // The digest makes the specialization part of the JIT content hash
      // even when substitution happens to leave the body text unchanged.
      src << "// specialized: " << opts_.spec.digest() << "\n";
    }
    src << kernelPreamble(def_.real);
    for (const auto& [name, fn] : usedFuns_) {
      src << "static inline "
          << ir::cTypeName(fn->returnType->scalarKind(), "real") << " " << name
          << "(";
      std::vector<std::string> ps;
      for (std::size_t i = 0; i < fn->paramNames.size(); ++i) {
        ps.push_back(ir::cTypeName(fn->paramTypes[i]->scalarKind(), "real") +
                     " " + fn->paramNames[i]);
      }
      src << join(ps, ", ") << ") { " << fn->body << " }\n";
    }
    src << "\n#ifdef __cplusplus\nextern \"C\"\n#endif\n";
    src << "void " << def_.name
        << "(void** lifta_args, const lifta_wi_ctx* ctx) {\n";
    src << "  (void)ctx;\n";
    src << indent(k.body, 2);
    src << "}\n";
    return src.str();
  }

  const memory::KernelDef& def_;
  CodegenOptions opts_;
  analysis::Prover prover_;
  std::map<const Node*, Binding> env_;
  std::map<std::string, ir::UserFunPtr> usedFuns_;
  std::set<std::string> declared_;
  std::map<std::string, int> varLevel_;  // name -> loop level it lives at
  std::vector<Scope> scopes_;
  /// The last Iota element read accessCode printed: its C code, the bare
  /// index code and the index expression.
  struct IotaRead {
    std::string code;
    std::string indexCode;
    arith::Expr index;
  };
  IotaRead lastIota_;
  /// Attached while the guarded copy of a speculation candidate is emitted.
  std::optional<analysis::SpeculationProbe> probe_;
  bool speculating_ = false;  // emitting the speculated middle copy
  bool usedChunk_ = false;
  int counter_ = 0;
};

}  // namespace

std::string kernelPreamble(ir::ScalarKind real) {
  LIFTA_CHECK(real == ir::ScalarKind::Float || real == ir::ScalarKind::Double,
              "kernel precision must be Float or Double");
  // No #include: the JIT compiles kernels as C++, where <math.h> pulls in
  // <cmath> and adds ~120 ms to every cold compile. Real min/max, the only
  // libm functions the generator emits, go through the compiler builtins.
  const bool f32 = real == ir::ScalarKind::Float;
  std::string s = std::string("typedef ") + (f32 ? "float" : "double") +
                  " real;\n\n";
  s +=
      "typedef struct {\n"
      "  long gid[3]; long gsz[3]; long lid[3]; long lsz[3];\n"
      "  long wg[3]; long nwg[3];\n"
      "} lifta_wi_ctx;\n\n"
      "static inline long get_global_id(const lifta_wi_ctx* c, int d) { "
      "return c->gid[d]; }\n"
      "static inline long get_global_size(const lifta_wi_ctx* c, int d) { "
      "return c->gsz[d]; }\n"
      "static inline long get_local_id(const lifta_wi_ctx* c, int d) { "
      "return c->lid[d]; }\n"
      "static inline long get_local_size(const lifta_wi_ctx* c, int d) { "
      "return c->lsz[d]; }\n"
      "static inline long get_group_id(const lifta_wi_ctx* c, int d) { "
      "return c->wg[d]; }\n"
      "static inline long get_num_groups(const lifta_wi_ctx* c, int d) { "
      "return c->nwg[d]; }\n"
      "static inline long lifta_imin(long a, long b) { return a < b ? a : b; "
      "}\n"
      "static inline long lifta_imax(long a, long b) { return a > b ? a : b; "
      "}\n";
  s += std::string("static inline real lifta_fmin(real a, real b) { return ") +
       (f32 ? "__builtin_fminf" : "__builtin_fmin") + "(a, b); }\n";
  s += std::string("static inline real lifta_fmax(real a, real b) { return ") +
       (f32 ? "__builtin_fmaxf" : "__builtin_fmax") + "(a, b); }\n";
  s +=
      "static inline long min(long a, long b) { return a < b ? a : b; }\n"
      "static inline long max(long a, long b) { return a > b ? a : b; }\n\n";
  return s;
}

CodegenOptions CodegenOptions::fromEnv() {
  CodegenOptions o;
  const char* v = std::getenv("LIFTA_CODEGEN_OPT");
  if (v != nullptr && std::string(v) == "0") o.optimize = false;
  return o;
}

GeneratedKernel generateKernel(const memory::KernelDef& def,
                               const CodegenOptions& opts) {
  Emitter emitter(def, opts);
  GeneratedKernel out = emitter.run();
  if (!opts.spec.empty()) {
    out.specDigest = opts.spec.digest();
    out.buildFlags = "-O3";  // the optimizing tier; see GeneratedKernel doc
  }
  // Static verification runs after emission so malformed IR keeps reporting
  // CodegenError; only well-formed kernels reach the bounds/race provers.
  analysis::verifyKernel(def);
  // Translation validation: re-derive the optimizer's index simplification
  // and guard elimination on a store-summary level and prove the optimized
  // emission equivalent to the unoptimized one. Only the simplification
  // changes what the program computes (CSE, the chunk schedule and restrict
  // are naming, schedule and ABI decisions). Specialized kernels validate
  // under the same substitution on both walks — the gate then covers the
  // specialization pass too (DESIGN.md §12).
  if (opts.optimize) {
    analysis::verifyTranslation(def, opts.spec);
  }
  return out;
}

GeneratedKernel generateKernel(const memory::KernelDef& def) {
  return generateKernel(def, CodegenOptions::fromEnv());
}

}  // namespace lifta::codegen
