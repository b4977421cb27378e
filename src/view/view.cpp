#include "view/view.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace lifta::view {

namespace {
std::shared_ptr<View> make(ViewKind k) {
  auto v = std::make_shared<View>();
  v->kind = k;
  return v;
}
}  // namespace

ViewPtr memView(const std::string& name, ir::TypePtr type) {
  auto v = make(ViewKind::Mem);
  v->mem = name;
  v->type = std::move(type);
  return v;
}

ViewPtr accessView(ViewPtr inner, arith::Expr index) {
  LIFTA_CHECK(inner->type->isArray(), "accessView on non-array view");
  auto v = make(ViewKind::Access);
  v->type = inner->type->elem();
  v->children = {std::move(inner)};
  v->idx = std::move(index);
  return v;
}

ViewPtr zipView(std::vector<ViewPtr> inners, ir::TypePtr type) {
  auto v = make(ViewKind::Zip);
  v->children = std::move(inners);
  v->type = std::move(type);
  return v;
}

ViewPtr tupleComponentView(ViewPtr inner, int comp) {
  LIFTA_CHECK(inner->type->isTuple(), "tupleComponentView on non-tuple view");
  auto v = make(ViewKind::TupleComponent);
  v->type = inner->type->elems()[static_cast<std::size_t>(comp)];
  v->comp = comp;
  v->children = {std::move(inner)};
  return v;
}

ViewPtr slideView(ViewPtr inner, arith::Expr size, arith::Expr step) {
  LIFTA_CHECK(inner->type->isArray(), "slideView on non-array view");
  auto v = make(ViewKind::Slide);
  const arith::Expr count = (inner->type->size() - size) / step + arith::Expr(1);
  v->type = ir::Type::array(ir::Type::array(inner->type->elem(), size), count);
  v->a = std::move(size);
  v->b = std::move(step);
  v->children = {std::move(inner)};
  return v;
}

ViewPtr padView(ViewPtr inner, arith::Expr left, arith::Expr right,
                ir::PadMode mode) {
  LIFTA_CHECK(inner->type->isArray(), "padView on non-array view");
  auto v = make(ViewKind::Pad);
  v->type = ir::Type::array(inner->type->elem(),
                            inner->type->size() + left + right);
  v->a = std::move(left);
  v->b = std::move(right);
  v->padMode = mode;
  v->children = {std::move(inner)};
  return v;
}

ViewPtr splitView(ViewPtr inner, arith::Expr m) {
  LIFTA_CHECK(inner->type->isArray(), "splitView on non-array view");
  auto v = make(ViewKind::Split);
  v->type = ir::Type::array(ir::Type::array(inner->type->elem(), m),
                            inner->type->size() / m);
  v->a = std::move(m);
  v->children = {std::move(inner)};
  return v;
}

ViewPtr joinView(ViewPtr inner) {
  LIFTA_CHECK(inner->type->isArray() && inner->type->elem()->isArray(),
              "joinView requires a 2D view");
  auto v = make(ViewKind::Join);
  v->a = inner->type->elem()->size();
  v->type = ir::Type::array(inner->type->elem()->elem(),
                            inner->type->size() * v->a);
  v->children = {std::move(inner)};
  return v;
}

ViewPtr transposeView(ViewPtr inner) {
  LIFTA_CHECK(inner->type->isArray() && inner->type->elem()->isArray(),
              "transposeView requires a 2D view");
  auto v = make(ViewKind::Transpose);
  v->type = ir::Type::array(
      ir::Type::array(inner->type->elem()->elem(), inner->type->size()),
      inner->type->elem()->size());
  v->children = {std::move(inner)};
  return v;
}

ViewPtr slide3View(ViewPtr inner, arith::Expr size, arith::Expr step) {
  LIFTA_CHECK(inner->type->isArray() && inner->type->elem()->isArray() &&
                  inner->type->elem()->elem()->isArray(),
              "slide3View requires a 3D view");
  auto v = make(ViewKind::Slide3);
  const auto count = [&](const arith::Expr& dim) {
    return (dim - size) / step + arith::Expr(1);
  };
  const ir::TypePtr t = inner->type->elem()->elem()->elem();
  const ir::TypePtr window = ir::Type::array(
      ir::Type::array(ir::Type::array(t, size), size), size);
  v->type = ir::Type::array(
      ir::Type::array(
          ir::Type::array(window, count(inner->type->elem()->elem()->size())),
          count(inner->type->elem()->size())),
      count(inner->type->size()));
  v->a = std::move(size);
  v->b = std::move(step);
  v->children = {std::move(inner)};
  return v;
}

ViewPtr pad3View(ViewPtr inner, arith::Expr amount, ir::PadMode mode) {
  LIFTA_CHECK(inner->type->isArray() && inner->type->elem()->isArray() &&
                  inner->type->elem()->elem()->isArray(),
              "pad3View requires a 3D view");
  auto v = make(ViewKind::Pad3);
  const arith::Expr two = amount + amount;
  v->type = ir::Type::array(
      ir::Type::array(ir::Type::array(inner->type->elem()->elem()->elem(),
                                      inner->type->elem()->elem()->size() + two),
                      inner->type->elem()->size() + two),
      inner->type->size() + two);
  v->a = std::move(amount);
  v->padMode = mode;
  v->children = {std::move(inner)};
  return v;
}

ViewPtr offsetView(ViewPtr inner, arith::Expr offset) {
  auto v = make(ViewKind::Offset);
  v->type = inner->type;
  v->idx = std::move(offset);
  v->children = {std::move(inner)};
  return v;
}

ViewPtr iotaView(arith::Expr count) {
  auto v = make(ViewKind::Iota);
  v->type = ir::Type::array(ir::Type::int_(), std::move(count));
  return v;
}

ViewPtr constantView(const std::string& cExpr, ir::TypePtr type) {
  auto v = make(ViewKind::Constant);
  v->code = cExpr;
  v->type = std::move(type);
  return v;
}

ResolvedAccess resolveAccess(const ViewPtr& view, bool forStore) {
  std::vector<arith::Expr> idxStack;
  std::vector<int> tupleStack;
  ResolvedAccess out;
  ViewPtr v = view;

  auto pop = [&idxStack]() {
    LIFTA_CHECK(!idxStack.empty(), "view resolution: index stack underflow");
    arith::Expr e = idxStack.back();
    idxStack.pop_back();
    return e;
  };

  for (;;) {
    switch (v->kind) {
      case ViewKind::Access:
        idxStack.push_back(v->idx);
        v = v->children[0];
        break;

      case ViewKind::TupleComponent:
        tupleStack.push_back(v->comp);
        v = v->children[0];
        break;

      case ViewKind::Zip: {
        LIFTA_CHECK(!tupleStack.empty(),
                    "view resolution: zip without tuple projection");
        const int c = tupleStack.back();
        tupleStack.pop_back();
        v = v->children[static_cast<std::size_t>(c)];
        break;
      }

      case ViewKind::Slide: {
        const arith::Expr w = pop();  // window index (outer access)
        const arith::Expr u = pop();  // position within the window
        idxStack.push_back(w * v->b + u);
        v = v->children[0];
        break;
      }

      case ViewKind::Pad: {
        const arith::Expr i = pop();
        const arith::Expr adjusted = i - v->a;
        const arith::Expr innerSize = v->children[0]->type->size();
        if (v->padMode == ir::PadMode::Zero) {
          if (forStore) {
            throw CodegenError("zero-Pad cannot appear in an output view");
          }
          out.guards.push_back(AccessGuard{adjusted, innerSize});
          idxStack.push_back(adjusted);
        } else {
          idxStack.push_back(arith::min(
              arith::max(adjusted, arith::Expr(0)), innerSize - arith::Expr(1)));
        }
        v = v->children[0];
        break;
      }

      case ViewKind::Split: {
        const arith::Expr i = pop();  // row (outer)
        const arith::Expr j = pop();  // element within the row
        idxStack.push_back(i * v->a + j);
        v = v->children[0];
        break;
      }

      case ViewKind::Join: {
        const arith::Expr k = pop();
        // Subsequent consumers pop outer-first, so push row last.
        idxStack.push_back(k % v->a);
        idxStack.push_back(k / v->a);
        v = v->children[0];
        break;
      }

      case ViewKind::Transpose: {
        // transposed[i][j] == original[j][i]: swap the two top indices so
        // the inner view consumes (j, i) outer-first.
        const arith::Expr i = pop();
        const arith::Expr j = pop();
        idxStack.push_back(i);
        idxStack.push_back(j);
        v = v->children[0];
        break;
      }

      case ViewKind::Slide3: {
        // Pops (z', y', x', dz, dy, dx) outer-first, pushes the absolute
        // 3D position for the inner view (z on top).
        const arith::Expr z = pop();
        const arith::Expr y = pop();
        const arith::Expr x = pop();
        const arith::Expr dz = pop();
        const arith::Expr dy = pop();
        const arith::Expr dx = pop();
        idxStack.push_back(x * v->b + dx);
        idxStack.push_back(y * v->b + dy);
        idxStack.push_back(z * v->b + dz);
        v = v->children[0];
        break;
      }

      case ViewKind::Pad3: {
        const arith::Expr z = pop();
        const arith::Expr y = pop();
        const arith::Expr x = pop();
        const ViewPtr& inner = v->children[0];
        const arith::Expr sx = inner->type->elem()->elem()->size();
        const arith::Expr sy = inner->type->elem()->size();
        const arith::Expr sz = inner->type->size();
        const arith::Expr ax = x - v->a;
        const arith::Expr ay = y - v->a;
        const arith::Expr az = z - v->a;
        if (v->padMode == ir::PadMode::Zero) {
          if (forStore) {
            throw CodegenError("zero-Pad3 cannot appear in an output view");
          }
          out.guards.push_back(AccessGuard{az, sz});
          out.guards.push_back(AccessGuard{ay, sy});
          out.guards.push_back(AccessGuard{ax, sx});
          idxStack.push_back(ax);
          idxStack.push_back(ay);
          idxStack.push_back(az);
        } else {
          auto clamp = [](const arith::Expr& i, const arith::Expr& s) {
            return arith::min(arith::max(i, arith::Expr(0)),
                              s - arith::Expr(1));
          };
          idxStack.push_back(clamp(ax, sx));
          idxStack.push_back(clamp(ay, sy));
          idxStack.push_back(clamp(az, sz));
        }
        v = v->children[0];
        break;
      }

      case ViewKind::Offset: {
        const arith::Expr i = pop();
        idxStack.push_back(i + v->idx);
        v = v->children[0];
        break;
      }

      case ViewKind::Iota: {
        if (forStore) throw CodegenError("Iota cannot be written to");
        out.kind = ResolvedAccess::Kind::Iota;
        out.index = pop();
        return out;
      }

      case ViewKind::Constant: {
        if (forStore) throw CodegenError("constant view cannot be written to");
        out.kind = ResolvedAccess::Kind::Constant;
        out.code = v->code;
        return out;
      }

      case ViewKind::Mem: {
        // Consume the remaining indices against the buffer's (possibly
        // nested) array type, outermost dimension first.
        arith::Expr addr(0);
        ir::TypePtr t = v->type;
        while (t->isArray()) {
          const arith::Expr i = pop();
          addr = addr + i * t->elem()->flatCount();
          t = t->elem();
        }
        LIFTA_CHECK(idxStack.empty(),
                    "view resolution: leftover indices at memory view");
        if (forStore) {
          LIFTA_CHECK(out.guards.empty(),
                      "view resolution: guarded store is not representable");
        }
        out.kind = ResolvedAccess::Kind::Mem;
        out.mem = v->mem;
        out.index = addr;
        out.extent = v->type->flatCount();
        return out;
      }
    }
  }
}

namespace {

/// Shared string assembly for loads and stores: prints the structured access
/// exactly as the pre-optimizer generator did, so the opt-off path stays
/// byte-identical.
std::string printAccess(const ResolvedAccess& a, bool forStore,
                        const std::string& zeroLiteral) {
  auto wrap = [&](std::string load) {
    // Innermost guard first so the generated ternaries nest naturally.
    for (auto it = a.guards.rbegin(); it != a.guards.rend(); ++it) {
      const std::string adj = it->adjusted.toString();
      load = "((0 <= " + adj + " && " + adj + " < " + it->size.toString() +
             ") ? " + load + " : " + zeroLiteral + ")";
    }
    return load;
  };
  switch (a.kind) {
    case ResolvedAccess::Kind::Iota:
      return wrap("((int)(" + a.index.toString() + "))");
    case ResolvedAccess::Kind::Constant:
      return wrap(a.code);
    case ResolvedAccess::Kind::Mem: {
      const std::string access = a.mem + "[" + a.index.toString() + "]";
      return forStore ? access : wrap(access);
    }
  }
  return "";
}

}  // namespace

std::string resolveLoad(const ViewPtr& v, const std::string& zeroLiteral) {
  return printAccess(resolveAccess(v, /*forStore=*/false), false, zeroLiteral);
}

std::string resolveStore(const ViewPtr& v) {
  return printAccess(resolveAccess(v, /*forStore=*/true), true, "");
}

SymbolicAccess resolveSymbolic(const ViewPtr& view, int& guardCounter) {
  std::vector<arith::Expr> idxStack;
  std::vector<int> tupleStack;
  SymbolicAccess out;
  ViewPtr v = view;

  auto pop = [&idxStack]() {
    LIFTA_CHECK(!idxStack.empty(), "view resolution: index stack underflow");
    arith::Expr e = idxStack.back();
    idxStack.pop_back();
    return e;
  };

  // A zero-Pad guard brackets its component in [0, innerSize); representing
  // the component by a fresh variable with exactly that domain lets bounds
  // proofs assume the guard without any extra plumbing.
  auto guardVar = [&](const arith::Expr& actual, const arith::Expr& size) {
    const std::string name = "pad$" + std::to_string(guardCounter++);
    out.guards.push_back(SymbolicGuard{name, actual, size});
    return arith::Expr::var(name);
  };

  for (;;) {
    switch (v->kind) {
      case ViewKind::Access:
        idxStack.push_back(v->idx);
        v = v->children[0];
        break;

      case ViewKind::TupleComponent:
        tupleStack.push_back(v->comp);
        v = v->children[0];
        break;

      case ViewKind::Zip: {
        LIFTA_CHECK(!tupleStack.empty(),
                    "view resolution: zip without tuple projection");
        const int c = tupleStack.back();
        tupleStack.pop_back();
        v = v->children[static_cast<std::size_t>(c)];
        break;
      }

      case ViewKind::Slide: {
        const arith::Expr w = pop();
        const arith::Expr u = pop();
        idxStack.push_back(w * v->b + u);
        v = v->children[0];
        break;
      }

      case ViewKind::Pad: {
        const arith::Expr i = pop();
        const arith::Expr adjusted = i - v->a;
        const arith::Expr innerSize = v->children[0]->type->size();
        if (v->padMode == ir::PadMode::Zero) {
          idxStack.push_back(guardVar(adjusted, innerSize));
        } else {
          out.clamped = true;
          idxStack.push_back(arith::min(
              arith::max(adjusted, arith::Expr(0)), innerSize - arith::Expr(1)));
        }
        v = v->children[0];
        break;
      }

      case ViewKind::Split: {
        const arith::Expr i = pop();
        const arith::Expr j = pop();
        idxStack.push_back(i * v->a + j);
        v = v->children[0];
        break;
      }

      case ViewKind::Join: {
        const arith::Expr k = pop();
        idxStack.push_back(k % v->a);
        idxStack.push_back(k / v->a);
        v = v->children[0];
        break;
      }

      case ViewKind::Transpose: {
        const arith::Expr i = pop();
        const arith::Expr j = pop();
        idxStack.push_back(i);
        idxStack.push_back(j);
        v = v->children[0];
        break;
      }

      case ViewKind::Slide3: {
        const arith::Expr z = pop();
        const arith::Expr y = pop();
        const arith::Expr x = pop();
        const arith::Expr dz = pop();
        const arith::Expr dy = pop();
        const arith::Expr dx = pop();
        idxStack.push_back(x * v->b + dx);
        idxStack.push_back(y * v->b + dy);
        idxStack.push_back(z * v->b + dz);
        v = v->children[0];
        break;
      }

      case ViewKind::Pad3: {
        const arith::Expr z = pop();
        const arith::Expr y = pop();
        const arith::Expr x = pop();
        const ViewPtr& inner = v->children[0];
        const arith::Expr sx = inner->type->elem()->elem()->size();
        const arith::Expr sy = inner->type->elem()->size();
        const arith::Expr sz = inner->type->size();
        const arith::Expr ax = x - v->a;
        const arith::Expr ay = y - v->a;
        const arith::Expr az = z - v->a;
        if (v->padMode == ir::PadMode::Zero) {
          // Guard order matches resolve(): z, then y, then x.
          const arith::Expr gz = guardVar(az, sz);
          const arith::Expr gy = guardVar(ay, sy);
          const arith::Expr gx = guardVar(ax, sx);
          idxStack.push_back(gx);
          idxStack.push_back(gy);
          idxStack.push_back(gz);
        } else {
          out.clamped = true;
          auto clamp = [](const arith::Expr& i, const arith::Expr& s) {
            return arith::min(arith::max(i, arith::Expr(0)),
                              s - arith::Expr(1));
          };
          idxStack.push_back(clamp(ax, sx));
          idxStack.push_back(clamp(ay, sy));
          idxStack.push_back(clamp(az, sz));
        }
        v = v->children[0];
        break;
      }

      case ViewKind::Offset: {
        const arith::Expr i = pop();
        idxStack.push_back(i + v->idx);
        v = v->children[0];
        break;
      }

      case ViewKind::Iota: {
        out.kind = SymbolicAccess::Kind::Iota;
        out.index = pop();
        return out;
      }

      case ViewKind::Constant: {
        out.kind = SymbolicAccess::Kind::Constant;
        return out;
      }

      case ViewKind::Mem: {
        arith::Expr addr(0);
        ir::TypePtr t = v->type;
        while (t->isArray()) {
          const arith::Expr i = pop();
          addr = addr + i * t->elem()->flatCount();
          t = t->elem();
        }
        LIFTA_CHECK(idxStack.empty(),
                    "view resolution: leftover indices at memory view");
        out.kind = SymbolicAccess::Kind::Mem;
        out.mem = v->mem;
        out.index = addr;
        out.extent = v->type->flatCount();
        return out;
      }
    }
  }
}

std::string describe(const ViewPtr& v) {
  switch (v->kind) {
    case ViewKind::Mem:
      return "MemView(" + v->mem + ")";
    case ViewKind::Access:
      return "ArrayAccessView(" + v->idx.toString() + ", " +
             describe(v->children[0]) + ")";
    case ViewKind::Zip: {
      std::vector<std::string> parts;
      for (const auto& c : v->children) parts.push_back(describe(c));
      return "ZipView(" + join(parts, ", ") + ")";
    }
    case ViewKind::TupleComponent:
      return "TupleAccessView(" + std::to_string(v->comp) + ", " +
             describe(v->children[0]) + ")";
    case ViewKind::Slide:
      return "SlideView(" + v->a.toString() + ", " + v->b.toString() + ", " +
             describe(v->children[0]) + ")";
    case ViewKind::Pad:
      return "PadView(" + v->a.toString() + ", " + v->b.toString() + ", " +
             describe(v->children[0]) + ")";
    case ViewKind::Split:
      return "SplitView(" + v->a.toString() + ", " + describe(v->children[0]) +
             ")";
    case ViewKind::Join:
      return "JoinView(" + describe(v->children[0]) + ")";
    case ViewKind::Transpose:
      return "TransposeView(" + describe(v->children[0]) + ")";
    case ViewKind::Slide3:
      return "Slide3View(" + v->a.toString() + ", " + v->b.toString() + ", " +
             describe(v->children[0]) + ")";
    case ViewKind::Pad3:
      return "Pad3View(" + v->a.toString() + ", " + describe(v->children[0]) +
             ")";
    case ViewKind::Offset:
      return "ViewOffset(" + v->idx.toString() + ", " +
             describe(v->children[0]) + ")";
    case ViewKind::Iota:
      return "IotaView";
    case ViewKind::Constant:
      return "ConstantView(" + v->code + ")";
  }
  return "<?>";
}

}  // namespace lifta::view
