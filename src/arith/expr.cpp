#include "arith/expr.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace lifta::arith {

namespace {

NodePtr constNode(std::int64_t v) { return std::make_shared<ExprNode>(v); }

/// Total order over expressions used to sort commutative operand lists into
/// canonical form: constants first, then by kind, then structurally.
int compare(const Expr& a, const Expr& b);

int compareVec(const std::vector<Expr>& a, const std::vector<Expr>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int c = compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

int compare(const Expr& a, const Expr& b) {
  const int ka = static_cast<int>(a.kind());
  const int kb = static_cast<int>(b.kind());
  if (ka != kb) return ka < kb ? -1 : 1;
  switch (a.kind()) {
    case Kind::Const: {
      const std::int64_t va = a.constValue();
      const std::int64_t vb = b.constValue();
      if (va != vb) return va < vb ? -1 : 1;
      return 0;
    }
    case Kind::Var:
      return a.varName().compare(b.varName());
    default:
      return compareVec(a.operands(), b.operands());
  }
}

}  // namespace

ExprNode::ExprNode(Kind k, std::vector<Expr> ops)
    : kind(k), operands(std::move(ops)) {}

Expr::Expr() : node_(constNode(0)) {}
Expr::Expr(std::int64_t v) : node_(constNode(v)) {}

Expr Expr::var(const std::string& name) {
  return Expr(std::make_shared<ExprNode>(name));
}

std::int64_t Expr::constValue() const {
  LIFTA_CHECK(isConst(), "constValue on non-const expression");
  return node_->value;
}

const std::string& Expr::varName() const {
  LIFTA_CHECK(kind() == Kind::Var, "varName on non-var expression");
  return node_->name;
}

bool Expr::operator==(const Expr& other) const {
  if (node_ == other.node_) return true;
  return compare(*this, other) == 0;
}

namespace {

/// Splits a term into (constant coefficient, symbolic rest). The rest is
/// Expr(1) for pure constants.
std::pair<std::int64_t, Expr> splitCoeff(const Expr& term) {
  if (term.isConst()) return {term.constValue(), Expr(1)};
  if (term.kind() == Kind::Mul && term.operands().front().isConst()) {
    const std::int64_t c = term.operands().front().constValue();
    std::vector<Expr> rest(term.operands().begin() + 1, term.operands().end());
    return {c, mul(std::move(rest))};
  }
  return {1, term};
}

}  // namespace

Expr add(std::vector<Expr> terms) {
  // Flatten nested sums, fold constants, and collect like terms so that
  // e.g. idx + 1 + (N - 1 - idx) simplifies to N. Like-term collection is
  // what lets Concat(Skip(idx), [v], Skip(N-1-idx)) *type* as [T]_N.
  std::vector<Expr> flat;
  std::int64_t constant = 0;
  for (auto& t : terms) {
    if (t.kind() == Kind::Add) {
      for (const auto& inner : t.operands()) {
        if (inner.isConst()) {
          constant += inner.constValue();
        } else {
          flat.push_back(inner);
        }
      }
    } else if (t.isConst()) {
      constant += t.constValue();
    } else {
      flat.push_back(std::move(t));
    }
  }

  // Collect like terms by their symbolic rest.
  std::vector<std::pair<Expr, std::int64_t>> collected;  // (rest, coeff)
  for (const auto& t : flat) {
    auto [coeff, rest] = splitCoeff(t);
    bool found = false;
    for (auto& [r, c] : collected) {
      if (r == rest) {
        c += coeff;
        found = true;
        break;
      }
    }
    if (!found) collected.emplace_back(rest, coeff);
  }

  std::vector<Expr> result;
  for (auto& [rest, coeff] : collected) {
    if (coeff == 0) continue;
    if (coeff == 1) {
      result.push_back(rest);
    } else {
      result.push_back(mul({Expr(coeff), rest}));
    }
  }

  std::sort(result.begin(), result.end(),
            [](const Expr& a, const Expr& b) { return compare(a, b) < 0; });
  if (constant != 0) result.insert(result.begin(), Expr(constant));
  if (result.empty()) return Expr(0);
  if (result.size() == 1) return result.front();
  return Expr(std::make_shared<ExprNode>(Kind::Add, std::move(result)));
}

Expr mul(std::vector<Expr> factors) {
  std::vector<Expr> flat;
  std::int64_t constant = 1;
  for (auto& f : factors) {
    if (f.kind() == Kind::Mul) {
      for (const auto& inner : f.operands()) {
        if (inner.isConst()) {
          constant *= inner.constValue();
        } else {
          flat.push_back(inner);
        }
      }
    } else if (f.isConst()) {
      constant *= f.constValue();
    } else {
      flat.push_back(std::move(f));
    }
  }
  if (constant == 0) return Expr(0);
  std::sort(flat.begin(), flat.end(),
            [](const Expr& a, const Expr& b) { return compare(a, b) < 0; });
  if (constant != 1) flat.insert(flat.begin(), Expr(constant));
  if (flat.empty()) return Expr(1);
  if (flat.size() == 1) return flat.front();
  return Expr(std::make_shared<ExprNode>(Kind::Mul, std::move(flat)));
}

Expr distribute(const Expr& e, std::size_t maxTerms) {
  switch (e.kind()) {
    case Kind::Const:
    case Kind::Var:
      return e;
    case Kind::Add: {
      std::vector<Expr> terms;
      terms.reserve(e.operands().size());
      for (const auto& op : e.operands()) terms.push_back(distribute(op, maxTerms));
      return add(std::move(terms));
    }
    case Kind::Mul: {
      // Cross-multiply the additive terms of each factor.
      std::vector<Expr> sum{Expr(1)};
      for (const auto& op : e.operands()) {
        const Expr f = distribute(op, maxTerms);
        const std::vector<Expr> fTerms = f.kind() == Kind::Add
                                             ? f.operands()
                                             : std::vector<Expr>{f};
        if (sum.size() * fTerms.size() > maxTerms) return e;
        std::vector<Expr> next;
        next.reserve(sum.size() * fTerms.size());
        for (const auto& s : sum) {
          for (const auto& t : fTerms) next.push_back(mul({s, t}));
        }
        sum = std::move(next);
      }
      return add(std::move(sum));
    }
    case Kind::Div:
      return div(distribute(e.operands()[0], maxTerms),
                 distribute(e.operands()[1], maxTerms));
    case Kind::Mod:
      return mod(distribute(e.operands()[0], maxTerms),
                 distribute(e.operands()[1], maxTerms));
    case Kind::Min:
      return min(distribute(e.operands()[0], maxTerms),
                 distribute(e.operands()[1], maxTerms));
    case Kind::Max:
      return max(distribute(e.operands()[0], maxTerms),
                 distribute(e.operands()[1], maxTerms));
  }
  return e;
}

Expr div(const Expr& a, const Expr& b) {
  if (b.isConst(1)) return a;
  if (a.isConst(0) && !b.isConst(0)) return Expr(0);
  if (a.isConst() && b.isConst()) {
    LIFTA_CHECK(b.constValue() != 0, "constant division by zero");
    return Expr(a.constValue() / b.constValue());
  }
  if (a == b) return Expr(1);
  // (x / a) / b == x / (a * b): normalizes chained reshapes like
  // split(ny, split(nx, flat)).
  if (a.kind() == Kind::Div) {
    return div(a.operands()[0], mul({a.operands()[1], b}));
  }
  // Cancel exact factors: (nx * ny * nz) / (nx * ny) == nz. Only sound
  // under the whole-division invariant array reshapes guarantee.
  if (a.kind() == Kind::Mul) {
    std::vector<Expr> numFactors(a.operands());
    std::vector<Expr> denFactors =
        (b.kind() == Kind::Mul) ? b.operands() : std::vector<Expr>{b};
    std::vector<Expr> remainingDen;
    for (const auto& d : denFactors) {
      bool cancelled = false;
      for (std::size_t i = 0; i < numFactors.size(); ++i) {
        if (numFactors[i] == d) {
          numFactors.erase(numFactors.begin() +
                           static_cast<std::ptrdiff_t>(i));
          cancelled = true;
          break;
        }
      }
      if (!cancelled) remainingDen.push_back(d);
    }
    if (remainingDen.size() < denFactors.size()) {
      const Expr num = mul(std::move(numFactors));
      if (remainingDen.empty()) return num;
      return div(num, mul(std::move(remainingDen)));
    }
  }
  return Expr(std::make_shared<ExprNode>(Kind::Div, std::vector<Expr>{a, b}));
}

Expr mod(const Expr& a, const Expr& b) {
  if (b.isConst(1)) return Expr(0);
  if (a.isConst(0) && !b.isConst(0)) return Expr(0);
  if (a.isConst() && b.isConst()) {
    LIFTA_CHECK(b.constValue() != 0, "constant modulo by zero");
    return Expr(a.constValue() % b.constValue());
  }
  if (a == b) return Expr(0);
  return Expr(std::make_shared<ExprNode>(Kind::Mod, std::vector<Expr>{a, b}));
}

Expr min(const Expr& a, const Expr& b) {
  if (a.isConst() && b.isConst()) {
    return Expr(std::min(a.constValue(), b.constValue()));
  }
  if (a == b) return a;
  return Expr(std::make_shared<ExprNode>(Kind::Min, std::vector<Expr>{a, b}));
}

Expr max(const Expr& a, const Expr& b) {
  if (a.isConst() && b.isConst()) {
    return Expr(std::max(a.constValue(), b.constValue()));
  }
  if (a == b) return a;
  return Expr(std::make_shared<ExprNode>(Kind::Max, std::vector<Expr>{a, b}));
}

std::string Expr::toString() const {
  switch (kind()) {
    case Kind::Const:
      return std::to_string(node_->value);
    case Kind::Var:
      return node_->name;
    case Kind::Add: {
      std::vector<std::string> parts;
      parts.reserve(operands().size());
      for (const auto& op : operands()) parts.push_back(op.toString());
      return enclose("(", join(parts, " + "), ")");
    }
    case Kind::Mul: {
      std::vector<std::string> parts;
      parts.reserve(operands().size());
      for (const auto& op : operands()) parts.push_back(op.toString());
      return enclose("(", join(parts, " * "), ")");
    }
    case Kind::Div:
      return enclose(
          "(", operands()[0].toString() + " / " + operands()[1].toString(),
          ")");
    case Kind::Mod:
      return enclose(
          "(", operands()[0].toString() + " % " + operands()[1].toString(),
          ")");
    case Kind::Min:
      return enclose(
          "min(", operands()[0].toString() + ", " + operands()[1].toString(),
          ")");
    case Kind::Max:
      return enclose(
          "max(", operands()[0].toString() + ", " + operands()[1].toString(),
          ")");
  }
  return "<?>";
}

Expr Expr::substitute(const std::string& name, const Expr& replacement) const {
  return substitute(std::map<std::string, Expr>{{name, replacement}});
}

Expr Expr::substitute(const std::map<std::string, Expr>& bindings) const {
  switch (kind()) {
    case Kind::Const:
      return *this;
    case Kind::Var: {
      auto it = bindings.find(node_->name);
      return it == bindings.end() ? *this : it->second;
    }
    default: {
      std::vector<Expr> newOps;
      newOps.reserve(operands().size());
      bool changed = false;
      for (const auto& op : operands()) {
        Expr sub = op.substitute(bindings);
        changed = changed || !(sub == op);
        newOps.push_back(std::move(sub));
      }
      if (!changed) return *this;
      switch (kind()) {
        case Kind::Add:
          return add(std::move(newOps));
        case Kind::Mul:
          return mul(std::move(newOps));
        case Kind::Div:
          return div(newOps[0], newOps[1]);
        case Kind::Mod:
          return mod(newOps[0], newOps[1]);
        case Kind::Min:
          return min(newOps[0], newOps[1]);
        case Kind::Max:
          return max(newOps[0], newOps[1]);
        default:
          LIFTA_CHECK(false, "unreachable");
      }
    }
  }
  LIFTA_CHECK(false, "unreachable");
}

std::int64_t Expr::evaluate(
    const std::map<std::string, std::int64_t>& env) const {
  switch (kind()) {
    case Kind::Const:
      return node_->value;
    case Kind::Var: {
      auto it = env.find(node_->name);
      if (it == env.end()) throw Error("unbound variable: " + node_->name);
      return it->second;
    }
    case Kind::Add: {
      std::int64_t acc = 0;
      for (const auto& op : operands()) acc += op.evaluate(env);
      return acc;
    }
    case Kind::Mul: {
      std::int64_t acc = 1;
      for (const auto& op : operands()) acc *= op.evaluate(env);
      return acc;
    }
    case Kind::Div: {
      const std::int64_t d = operands()[1].evaluate(env);
      if (d == 0) throw Error("division by zero in " + toString());
      return operands()[0].evaluate(env) / d;
    }
    case Kind::Mod: {
      const std::int64_t d = operands()[1].evaluate(env);
      if (d == 0) throw Error("modulo by zero in " + toString());
      return operands()[0].evaluate(env) % d;
    }
    case Kind::Min:
      return std::min(operands()[0].evaluate(env), operands()[1].evaluate(env));
    case Kind::Max:
      return std::max(operands()[0].evaluate(env), operands()[1].evaluate(env));
  }
  LIFTA_CHECK(false, "unreachable");
}

void Expr::freeVars(std::set<std::string>& out) const {
  switch (kind()) {
    case Kind::Const:
      return;
    case Kind::Var:
      out.insert(node_->name);
      return;
    default:
      for (const auto& op : operands()) op.freeVars(out);
  }
}

std::set<std::string> Expr::freeVars() const {
  std::set<std::string> out;
  freeVars(out);
  return out;
}

}  // namespace lifta::arith
