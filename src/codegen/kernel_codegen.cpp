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
#include "analysis/walk.hpp"
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

/// Prints a kernel as C over the shared IR walk (analysis/walk.hpp): values
/// are C expressions, loads and stores are printed through the optimizer's
/// index pipeline, loops as C for-loops.
class Emitter : public analysis::Walk<Emitter, std::string> {
  using Base = analysis::Walk<Emitter, std::string>;
  friend Base;

 public:
  Emitter(const memory::KernelDef& def, const CodegenOptions& opts)
      : Base(def, opts.spec, opts.optimize) {}

  GeneratedKernel run() {
    checkPrecision();
    ir::typecheck(def_.body);
    GeneratedKernel out;
    out.name = def_.name;
    out.plan = memory::planMemory(def_);

    scopes_.emplace_back();  // function-top scope (level 0)
    for (const auto& p : def_.params) declared_.insert(p->name);
    emitUnpack(out.plan);
    walkArray(def_.body, bindKernel());

    LIFTA_CHECK(scopes_.size() == 1, "unbalanced codegen scopes");
    out.body = scopes_.front().text.str();
    out.optimized = optimized_;
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

  /// A scalar parameter's C expression: normally the local unpacked from
  /// the args array; under specialization, the baked literal. Int constants
  /// stay bare decimal so indexLeaf folds them into the index algebra; real
  /// constants are parenthesized so negative literals splice safely.
  std::string scalarParam(const Node& p) const {
    if (auto it = spec_.ints.find(p.name); it != spec_.ints.end()) {
      const ir::TypePtr scalar = p.type->isTuple() ? nullptr
                                                   : p.type->scalarElem();
      if (scalar && scalar->scalarKind() == ir::ScalarKind::Int) {
        return std::to_string(it->second);
      }
    }
    if (auto it = spec_.reals.find(p.name); it != spec_.reals.end()) {
      return enclose(
          "(", memory::Specialization::realLiteral(it->second, def_.real),
          ")");
    }
    return p.name;
  }

  std::string indexValue(const arith::Expr& index) const {
    return index.toString();
  }

  std::string constant(const std::string& code) const { return code; }

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
    a.index = spec_.subst(a.index);
    for (auto& g : a.guards) {
      g.adjusted = spec_.subst(g.adjusted);
      g.size = spec_.subst(g.size);
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
          probe_->noteLoad(a.mem, a.index, spec_.subst(a.extent),
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

  std::string load(const ViewPtr& v) {
    if (!optimized_) return view::resolveLoad(v, zeroLiteral());
    return accessCode(view::resolveAccess(v, /*forStore=*/false), false);
  }

  /// Prints `slot = value;` and returns the slot's code.
  std::string store(const ViewPtr& slot, const std::string& value) {
    const std::string lhs =
        optimized_ ? accessCode(view::resolveAccess(slot, /*forStore=*/true),
                                true)
                   : view::resolveStore(slot);
    stmt(lhs + " = " + value + ";");
    return lhs;
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

  std::string compute(const Node& n) {
    switch (n.op) {
      case Op::Literal:
        return printLiteral(n);

      case Op::Binary: {
        const std::string a = scalar(n.args[0]);
        const std::string b = scalar(n.args[1]);
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
        const std::string a = scalar(n.args[0]);
        return (n.un == ir::UnOp::Neg ? "(-" : "(!") + a + ")";
      }

      case Op::Select: {
        const std::string c = scalar(n.args[0]);
        const std::string t = scalar(n.args[1]);
        const std::string f = scalar(n.args[2]);
        return "(" + c + " ? " + t + " : " + f + ")";
      }

      case Op::Cast: {
        const std::string a = scalar(n.args[0]);
        return "((" + ir::cTypeName(n.type->scalarKind(), realName()) + ")" +
               a + ")";
      }

      case Op::UserFunCall: {
        usedFuns_[n.userFun->name] = n.userFun;
        std::vector<std::string> args;
        for (const auto& a : n.args) args.push_back(scalar(a));
        return n.userFun->name + "(" + join(args, ", ") + ")";
      }

      default:
        analysis::notScalar(n);
    }
  }

  /// The speculated copy of a map body renames its lets: every emitted copy
  /// declares its own locals.
  std::string letName(const Node& binder) {
    std::string name = binder.name;
    while (speculating_ && declared_.count(name)) name = fresh(binder.name);
    declareLocal(name);
    return name;
  }

  /// A scalar let becomes a C local.
  std::string letScalar(const std::string& name, const ExprPtr& value) {
    lastIota_ = IotaRead{};
    const std::string code = scalar(value);
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
    return name;
  }

  void declarePrivate(const std::string& name, const ir::TypePtr& type,
                      std::int64_t count) {
    stmt(ir::cTypeName(type->scalarElem()->scalarKind(), realName()) + " " +
         name + "[" + std::to_string(count) + "];");
  }

  std::string accumulatorName() {
    const std::string acc = fresh("acc");
    declareLocal(acc);
    return acc;
  }

  std::string accumulator(const std::string& acc, const Node& reduce,
                          const std::string& init) {
    stmt(ir::cTypeName(reduce.type->scalarKind(), realName()) + " " + acc +
         " = " + init + ";");
    return acc;
  }

  std::string reduced(const std::string& acc, const std::string&,
                      const std::string&, const std::string& body) {
    stmt(acc + " = " + body + ";");
    return acc;
  }

  // --- index conversion ----------------------------------------------------

  /// A parameter whose code is a name or a decimal joins the index algebra
  /// as is; anything else is evaluated once into a local index variable,
  /// so the view algebra only ever sees well-formed terms.
  arith::Expr indexLeaf(const ExprPtr& e) {
    const std::string code = scalar(e);
    if (e->op == Op::Param) {
      if (isIdentifier(code)) return arith::Expr::var(code);
      if (isDecimalInteger(code)) {
        return arith::Expr(static_cast<std::int64_t>(std::stoll(code)));
      }
    }
    const std::string tmp = fresh("ix");
    declareLocal(tmp);
    stmt("const long " + tmp + " = " + code + ";");
    return arith::Expr::var(tmp);
  }

  // --- loops ---------------------------------------------------------------

  void openLoop(const Node* map, const std::string& iv,
                const arith::Expr& len) {
    if (map != nullptr) declareLocal(iv);
    const std::string len_s = len.toString();
    if (map == nullptr || map->mapKind == ir::MapKind::Seq) {
      open("for (long " + iv + " = 0; " + iv + " < " + len_s + "; ++" + iv +
           ")");
    } else if (optimized_ && map->mapDim == 0) {
      // Contiguous-chunk schedule: work item i covers the index range
      // [i*c, min((i+1)*c, len)) with c = max(ceil(len/gsz), chunk).
      // gsz*c >= len and the ranges are disjoint, so every launch
      // geometry covers [0, len) exactly once — the host may (and does)
      // shrink the launch to ~ceil(len/chunk) items to cut per-item
      // dispatch overhead.
      usedChunk_ = true;
      const std::string c = std::to_string(kChunk);
      stmt("const long " + iv + "_n = get_global_size(ctx, 0);");
      stmt("long " + iv + "_c = (" + len_s + " + " + iv + "_n - 1) / " + iv +
           "_n;");
      stmt("if (" + iv + "_c < " + c + ") " + iv + "_c = " + c + ";");
      stmt("const long " + iv + "_lo = get_global_id(ctx, 0) * " + iv +
           "_c;");
      stmt("const long " + iv + "_hi = lifta_imin(" + iv + "_lo + " + iv +
           "_c, " + len_s + ");");
      open("for (long " + iv + " = " + iv + "_lo; " + iv + " < " + iv +
           "_hi; ++" + iv + ")");
    } else {
      const std::string d = std::to_string(map->mapDim);
      open("for (long " + iv + " = get_global_id(ctx, " + d + "); " + iv +
           " < " + len_s + "; " + iv + " += get_global_size(ctx, " + d +
           "))");
    }
    varLevel_[iv] = curLevel();
  }

  void closeLoop() { close(); }

  // --- guard speculation ----------------------------------------------------

  bool maySpeculate() const { return !probe_ && !speculating_; }

  /// The C code of a select's arms, in emission order.
  struct Arms {
    std::string c, t, f;
  };

  /// Emits the lets a speculation candidate's body opens with, then its
  /// select's arms, telling an attached probe which arm it is in.
  Arms emitSelectArms(const ExprPtr& body) {
    ExprPtr v = body;
    while (v->op == Op::Let) {
      let(*v);
      v = v->args[2];
    }
    const auto arm = [this](int a) {
      if (probe_) probe_->arm = a;
    };
    Arms out;
    arm(0);
    out.c = scalar(v->args[0]);
    arm(1);
    out.t = scalar(v->args[1]);
    arm(2);
    out.f = scalar(v->args[2]);
    arm(-1);
    return out;
  }

  /// Guard speculation (DESIGN.md §6) for a chunk-scheduled map storing
  /// select(c, t, f), entered with the chunk loop open. Emits today's
  /// guarded body while probing it; when analysis::speculationRange proves
  /// a middle range [mlo, mhi), the guarded body moves into a two-part loop
  /// over the chunk's edges and a middle loop stores t unconditionally,
  /// then f where !c. Otherwise the guarded loop stays the only one.
  void speculate(const Node& n, const ViewPtr& dest, const std::string& iv,
                 const arith::Expr& len, const Node* select) {
    const arith::Expr g = arith::Expr::var(iv);
    const ViewPtr slot = view::accessView(dest, g);
    bindElement(n.lambda->params[0], n.args[0], g);
    probe_.emplace();
    probe_->select = select;
    const Arms guarded = emitSelectArms(n.lambda->body);
    store(slot, "(" + guarded.c + " ? " + guarded.t + " : " + guarded.f + ")");
    const analysis::SpeculationProbe probe = std::move(*probe_);
    probe_.reset();
    const auto range =
        isParam(view::resolveAccess(slot, /*forStore=*/true).mem)
            ? std::nullopt
            : analysis::speculationRange(
                  probe, iv, len, analysis::runtimeInts(def_, spec_));
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
    varLevel_[iv] = curLevel();
    enterLoop(iv, len);
    speculating_ = true;
    const Arms spec = emitSelectArms(n.lambda->body);
    speculating_ = false;
    const std::string specLhs = store(slot, spec.t);
    stmt("if (!(" + spec.c + ")) " + specLhs + " = " + spec.f + ";");
    close();
  }

  // --- kernel assembly -------------------------------------------------------

  void emitUnpack(const memory::MemoryPlan& plan) {
    // The kernel ABI never passes the same buffer through two array slots,
    // so the optimizer may promise the compiler non-aliasing pointers.
    const std::string rq = optimized_ ? "__restrict " : "";
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
    if (!spec_.empty()) {
      // The digest makes the specialization part of the JIT content hash
      // even when substitution happens to leave the body text unchanged.
      src << "// specialized: " << spec_.digest() << "\n";
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
