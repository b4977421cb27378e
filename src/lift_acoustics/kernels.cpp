#include "lift_acoustics/kernels.hpp"

#include <string>

#include "common/error.hpp"

namespace lifta::lift_acoustics {

using namespace lifta::ir;

namespace {

arith::Expr sz(const char* name) { return arith::Expr::var(name); }

/// Scalar helpers bound to the chosen precision.
struct RealOps {
  ScalarKind kind;
  TypePtr type() const { return Type::scalar(kind); }
  ExprPtr lit(double v) const { return litFloat(v, kind); }
  ExprPtr fromInt(ExprPtr e) const { return cast(type(), std::move(e)); }
};

/// curr[i-1] + curr[i+1] + curr[i-nx] + curr[i+nx] + curr[i-nxny] +
/// curr[i+nxny], left-associated exactly as the reference sums it.
ExprPtr neighborSum(const ExprPtr& curr, const ExprPtr& i, const ExprPtr& nx,
                    const ExprPtr& nxny) {
  auto at = [&](ExprPtr offsetIdx) {
    return arrayAccess(curr, std::move(offsetIdx));
  };
  ExprPtr s = at(i - litInt(1)) + at(i + litInt(1));
  s = s + at(i - nx);
  s = s + at(i + nx);
  s = s + at(i - nxny);
  s = s + at(i + nxny);
  return s;
}

}  // namespace

memory::Specialization classSpecialization(const memory::KernelDef& def,
                                           std::int64_t materials, double l,
                                           double l2) {
  memory::Specialization s;
  for (const auto& p : def.params) {
    if (p->name == "M") s.ints["M"] = materials;
    if (p->name == "l") s.reals["l"] = l;
    if (p->name == "l2") s.reals["l2"] = l2;
  }
  return s;
}

memory::KernelDef liftVolumeKernel(ScalarKind real) {
  const RealOps R{real};
  auto realArr = Type::array(R.type(), sz("cells"));
  auto prev = param("prev", realArr);
  auto curr = param("curr", realArr);
  auto nbrs = param("nbrs", Type::array(Type::int_(), sz("cells")));
  auto nx = param("nx", Type::int_());
  auto nxny = param("nxny", Type::int_());
  auto cells = param("cells", Type::int_());
  auto l2 = param("l2", R.type());

  auto tup = param("tup", nullptr);
  auto nbr = param("nbr", nullptr);
  auto i = param("i", nullptr);

  // (2 - l2*nbr)*curr[i] + l2*s - prev[i], computed only inside the room.
  auto s = neighborSum(curr, i, nx, nxny);
  auto interior = (R.lit(2.0) - l2 * R.fromInt(nbr)) * arrayAccess(curr, i) +
                  l2 * s -
                  arrayAccess(prev, i);
  auto body = let(
      nbr, get(tup, 0),
      let(i, get(tup, 1),
          select(binary(BinOp::Gt, nbr, litInt(0)), interior, R.lit(0.0))));

  memory::KernelDef def;
  def.name = "lift_volume_step";
  def.real = real;
  def.params = {prev, curr, nbrs, nx, nxny, cells, l2};
  def.body = mapGlb(lambda({tup}, body), zip({nbrs, iota(sz("cells"))}));
  return def;
}

memory::KernelDef liftVolumeStencil3DKernel(ScalarKind real) {
  const RealOps R{real};
  const arith::Expr nxS = sz("nx");
  const arith::Expr nyS = sz("ny");
  const arith::Expr nzS = sz("nz");
  const arith::Expr flat = nxS * nyS * nzS;
  auto realArr = Type::array(R.type(), flat);
  auto prev = param("prev", realArr);
  auto curr = param("curr", realArr);
  auto nbrs = param("nbrs", Type::array(Type::int_(), flat));
  auto nx = param("nx", Type::int_());
  auto ny = param("ny", Type::int_());
  auto nz = param("nz", Type::int_());
  auto cells = param("cells", Type::int_());
  auto l2 = param("l2", R.type());

  // Reshape the flat grid into a 3D view and build the 3^3 neighborhoods.
  auto grid3d = splitN(nyS, splitN(nxS, curr));
  auto m3 = slide3(3, 1, pad3(1, PadMode::Zero, grid3d));

  auto tz = param("tz", nullptr);
  auto ty = param("ty", nullptr);
  auto tx = param("tx", nullptr);
  auto z = param("z", nullptr);
  auto y = param("y", nullptr);
  auto x = param("x", nullptr);
  auto m = param("m", nullptr);
  auto idx = param("idx", nullptr);
  auto nbr = param("nbr", nullptr);

  auto mAt = [&](int dz, int dy, int dx) {
    return arrayAccess(
        arrayAccess(arrayAccess(m, litInt(dz)), litInt(dy)), litInt(dx));
  };
  // Sum in the exact order of the reference: x-1, x+1, y-1, y+1, z-1, z+1.
  ExprPtr s6 = mAt(1, 1, 0) + mAt(1, 1, 2);
  s6 = s6 + mAt(1, 0, 1);
  s6 = s6 + mAt(1, 2, 1);
  s6 = s6 + mAt(0, 1, 1);
  s6 = s6 + mAt(2, 1, 1);
  auto interior = (R.lit(2.0) - l2 * R.fromInt(nbr)) * mAt(1, 1, 1) +
                  l2 * s6 - arrayAccess(prev, idx);

  auto innerBody = let(
      m, get(tx, 0),
      let(x, get(tx, 1),
          let(idx, (z * ny + y) * nx + x,
              let(nbr, arrayAccess(nbrs, idx),
                  select(binary(BinOp::Gt, nbr, litInt(0)), interior,
                         R.lit(0.0))))));

  auto xMap = mapSeq(lambda({tx}, innerBody),
                     zip({get(ty, 0), iota(nxS)}));
  auto yBody = let(y, get(ty, 1), xMap);
  auto yMap = mapSeq(lambda({ty}, yBody), zip({get(tz, 0), iota(nyS)}));
  auto zBody = let(z, get(tz, 1), yMap);

  memory::KernelDef def;
  def.name = "lift_volume_stencil3d";
  def.real = real;
  def.params = {prev, curr, nbrs, nx, ny, nz, cells, l2};
  def.body = mapGlb(lambda({tz}, zBody), zip({m3, iota(nzS)}));
  return def;
}

memory::KernelDef liftFusedFiKernel(ScalarKind real) {
  const RealOps R{real};
  auto realArr = Type::array(R.type(), sz("cells"));
  auto prev = param("prev", realArr);
  auto curr = param("curr", realArr);
  auto nbrs = param("nbrs", Type::array(Type::int_(), sz("cells")));
  auto nx = param("nx", Type::int_());
  auto nxny = param("nxny", Type::int_());
  auto cells = param("cells", Type::int_());
  auto l = param("l", R.type());
  auto l2 = param("l2", R.type());
  auto beta = param("beta", R.type());

  auto tup = param("tup", nullptr);
  auto nbr = param("nbr", nullptr);
  auto i = param("i", nullptr);
  auto cf = param("cf", nullptr);

  auto s = neighborSum(curr, i, nx, nxny);
  // Interior: (2 - l2*nbr)*curr + l2*s - prev.
  auto interior = (R.lit(2.0) - l2 * R.fromInt(nbr)) * arrayAccess(curr, i) +
                  l2 * neighborSum(curr, i, nx, nxny) -
                  arrayAccess(prev, i);
  // Boundary: ((2 - l2*nbr)*curr + l2*s + (cf-1)*prev) / (1 + cf).
  auto boundary =
      ((R.lit(2.0) - l2 * R.fromInt(nbr)) * arrayAccess(curr, i) + l2 * s +
       (cf - R.lit(1.0)) * arrayAccess(prev, i)) /
      (R.lit(1.0) + cf);

  auto body = let(
      nbr, get(tup, 0),
      let(i, get(tup, 1),
          let(cf,
              R.lit(0.5) * l * R.fromInt(litInt(6) - nbr) * beta,
              select(binary(BinOp::Gt, nbr, litInt(0)),
                     select(binary(BinOp::Lt, nbr, litInt(6)), boundary,
                            interior),
                     R.lit(0.0)))));

  memory::KernelDef def;
  def.name = "lift_fused_fi";
  def.real = real;
  def.params = {prev, curr, nbrs, nx, nxny, cells, l, l2, beta};
  def.body = mapGlb(lambda({tup}, body), zip({nbrs, iota(sz("cells"))}));
  return def;
}

memory::KernelDef liftFiMmKernel(ScalarKind real) {
  const RealOps R{real};
  auto realArr = Type::array(R.type(), sz("cells"));
  auto boundaryIndices =
      param("boundaryIndices", Type::array(Type::int_(), sz("numB")));
  auto material = param("material", Type::array(Type::int_(), sz("numB")));
  auto nbrs = param("nbrs", Type::array(Type::int_(), sz("cells")));
  auto beta = param("beta", Type::array(R.type(), sz("M")));
  auto next = param("next", realArr);
  auto prev = param("prev", realArr);
  auto cells = param("cells", Type::int_());
  auto numB = param("numB", Type::int_());
  auto m = param("M", Type::int_());
  auto l = param("l", R.type());

  auto tup = param("tup", nullptr);
  auto idx = param("idx", nullptr);
  auto mi = param("mi", nullptr);
  auto nbr = param("nbr", nullptr);
  auto cf = param("cf", nullptr);
  auto boundaryUpdate = param("boundaryUpdate", nullptr);
  auto e = param("e", nullptr);

  // Listing 7: gather, compute, then write through Concat(Skip, [v], Skip).
  auto body = let(
      idx, get(tup, 0),
      let(mi, get(tup, 1),
          let(nbr, arrayAccess(nbrs, idx),
              let(cf,
                  R.lit(0.5) * l * R.fromInt(litInt(6) - nbr) *
                      arrayAccess(beta, mi),
                  let(boundaryUpdate,
                      (arrayAccess(next, idx) + cf * arrayAccess(prev, idx)) /
                          (R.lit(1.0) + cf),
                      concat({skip(R.type(), idx),
                              mapSeq(lambda({e}, e),
                                     arrayCons(boundaryUpdate, 1)),
                              skip(R.type(),
                                   cells - litInt(1) - idx)}))))));

  memory::KernelDef def;
  def.name = "lift_fimm_boundary";
  def.real = real;
  def.params = {boundaryIndices, material, nbrs, beta, next, prev,
                cells, numB, m, l};
  def.body =
      mapGlb(lambda({tup}, body), zip({boundaryIndices, material}));
  def.outAliasParam = "next";
  return def;
}

memory::KernelDef liftFdMmKernel(ScalarKind real, int numBranches) {
  LIFTA_CHECK(numBranches >= 1, "FD-MM needs at least one branch");
  const RealOps R{real};
  const arith::Expr mb(numBranches);
  auto realArr = Type::array(R.type(), sz("cells"));
  auto stateArr = Type::array(R.type(), mb * sz("numB"));
  auto coefArr = Type::array(Type::array(R.type(), mb), sz("M"));

  auto boundaryIndices =
      param("boundaryIndices", Type::array(Type::int_(), sz("numB")));
  auto material = param("material", Type::array(Type::int_(), sz("numB")));
  auto nbrs = param("nbrs", Type::array(Type::int_(), sz("cells")));
  auto beta = param("beta", Type::array(R.type(), sz("M")));
  auto biP = param("BI", coefArr);
  auto dP = param("D", coefArr);
  auto diP = param("DI", coefArr);
  auto fP = param("F", coefArr);
  auto next = param("next", realArr);
  auto prev = param("prev", realArr);
  auto g1P = param("g1", stateArr);
  auto v1P = param("v1", stateArr);
  auto v2P = param("v2", stateArr);
  auto cells = param("cells", Type::int_());
  auto numB = param("numB", Type::int_());
  auto m = param("M", Type::int_());
  auto l = param("l", R.type());

  auto tup = param("tup", nullptr);
  auto idx = param("idx", nullptr);
  auto mi = param("mi", nullptr);
  auto i = param("i", nullptr);
  auto nbr = param("nbr", nullptr);
  auto cf1 = param("cf1", nullptr);
  auto cf = param("cf", nullptr);
  auto prevVal = param("_prev", nullptr);
  auto g1Priv = param("_g1", nullptr);
  auto v2Priv = param("_v2", nullptr);
  auto nextAcc = param("_nextAcc", nullptr);
  auto nextVal = param("_next", nullptr);

  auto coefAt = [&](const ExprPtr& table, const ExprPtr& branch) {
    return arrayAccess(arrayAccess(table, mi), branch);
  };
  auto stateIdx = [&](const ExprPtr& branch) {
    return branch * numB + i;
  };

  // Private gathers of the branch state (Listing 4's _g1[MB], _v2[MB]).
  auto bG = param("bg", nullptr);
  auto gatherG1 =
      mapSeq(lambda({bG}, arrayAccess(g1P, stateIdx(bG))), iota(mb));
  auto bV = param("bv", nullptr);
  auto gatherV2 =
      mapSeq(lambda({bV}, arrayAccess(v2P, stateIdx(bV))), iota(mb));

  // Pressure correction folded over the branches, seeded with next[idx]:
  // acc -= cf1*BI * (2*D*_v2[b] - F*_g1[b]), matching the reference order.
  auto acc = param("acc", nullptr);
  auto bR = param("br", nullptr);
  auto lossBody =
      acc - cf1 * coefAt(biP, bR) *
                (R.lit(2.0) * coefAt(dP, bR) * arrayAccess(v2Priv, bR) -
                 coefAt(fP, bR) * arrayAccess(g1Priv, bR));
  auto fold = reduceSeq(lambda({acc, bR}, lossBody), arrayAccess(next, idx),
                        iota(mb));

  // Per-branch state update writing g1 and v1 in place.
  auto bU = param("b", nullptr);
  auto v1Val = param("_v1", nullptr);
  auto stateUpdate = mapSeq(
      lambda({bU},
             let(v1Val,
                 coefAt(biP, bU) *
                     (nextVal - prevVal +
                      coefAt(diP, bU) * arrayAccess(v2Priv, bU) -
                      R.lit(2.0) * coefAt(fP, bU) * arrayAccess(g1Priv, bU)),
                 makeTuple(
                     {writeTo(arrayAccess(g1P, stateIdx(bU)),
                              arrayAccess(g1Priv, bU) +
                                  R.lit(0.5) * (v1Val +
                                                arrayAccess(v2Priv, bU))),
                      writeTo(arrayAccess(v1P, stateIdx(bU)), v1Val)}))),
      iota(mb));

  auto body = let(
      idx, get(tup, 0),
      let(mi, get(tup, 1),
          let(i, get(tup, 2),
              let(nbr, arrayAccess(nbrs, idx),
                  let(cf1, l * R.fromInt(litInt(6) - nbr),
                      let(cf, R.lit(0.5) * cf1 * arrayAccess(beta, mi),
                          let(prevVal, arrayAccess(prev, idx),
                              let(g1Priv, gatherG1,
                                  let(v2Priv, gatherV2,
                                      let(nextAcc, fold,
                                          let(nextVal,
                                              (nextAcc + cf * prevVal) /
                                                  (R.lit(1.0) + cf),
                                              makeTuple(
                                                  {writeTo(arrayAccess(next,
                                                                       idx),
                                                           nextVal),
                                                   stateUpdate}))))))))))));

  memory::KernelDef def;
  def.name = "lift_fdmm_boundary";
  def.real = real;
  def.params = {boundaryIndices, material, nbrs, beta, biP, dP, diP, fP,
                next, prev, g1P, v1P, v2P, cells, numB, m, l};
  def.body = mapGlb(lambda({tup}, body),
                    zip({boundaryIndices, material, iota(sz("numB"))}));
  return def;
}

namespace {

/// Shared FI-MM class-kernel body: uniform launches bake (6 - nbr) into the
/// coefficient as a literal, mixed launches gather it per slot. The `cf`
/// expression keeps the exact left association of liftFiMmKernel, so the
/// specialization changes which *operands* are compile-time constants but
/// not a single rounding step.
memory::KernelDef fiMmClassKernel(ScalarKind real, int fixedNbr, bool mixed) {
  const RealOps R{real};
  auto realArr = Type::array(R.type(), sz("cells"));
  auto cellSorted =
      param("cellSorted", Type::array(Type::int_(), sz("count")));
  auto matSorted = param("matSorted", Type::array(Type::int_(), sz("count")));
  auto nbrSorted = param("nbrSorted", Type::array(Type::int_(), sz("count")));
  auto beta = param("beta", Type::array(R.type(), sz("M")));
  auto next = param("next", realArr);
  auto prev = param("prev", realArr);
  auto cells = param("cells", Type::int_());
  auto count = param("count", Type::int_());
  auto m = param("M", Type::int_());
  auto l = param("l", R.type());

  auto tup = param("tup", nullptr);
  auto idx = param("idx", nullptr);
  auto mi = param("mi", nullptr);
  auto nbr = param("nbr", nullptr);
  auto cf = param("cf", nullptr);
  auto boundaryUpdate = param("boundaryUpdate", nullptr);
  auto e = param("e", nullptr);

  auto sixMinusNbr =
      mixed ? litInt(6) - nbr : litInt(6) - litInt(fixedNbr);
  auto inner = let(
      cf, R.lit(0.5) * l * R.fromInt(sixMinusNbr) * arrayAccess(beta, mi),
      let(boundaryUpdate,
          (arrayAccess(next, idx) + cf * arrayAccess(prev, idx)) /
              (R.lit(1.0) + cf),
          concat({skip(R.type(), idx),
                  mapSeq(lambda({e}, e), arrayCons(boundaryUpdate, 1)),
                  skip(R.type(), cells - litInt(1) - idx)})));
  auto body =
      mixed ? let(idx, get(tup, 0),
                  let(mi, get(tup, 1), let(nbr, get(tup, 2), inner)))
            : let(idx, get(tup, 0), let(mi, get(tup, 1), inner));

  memory::KernelDef def;
  def.name = mixed ? std::string("lift_fimm_class_mixed")
                   : "lift_fimm_class_nbr" + std::to_string(fixedNbr);
  def.real = real;
  if (mixed) {
    def.params = {cellSorted, matSorted, nbrSorted, beta, next, prev,
                  cells, count, m, l};
    def.body = mapGlb(lambda({tup}, body),
                      zip({cellSorted, matSorted, nbrSorted}));
  } else {
    def.params = {cellSorted, matSorted, beta, next, prev, cells, count, m, l};
    def.body = mapGlb(lambda({tup}, body), zip({cellSorted, matSorted}));
  }
  def.outAliasParam = "next";
  return def;
}

/// Shared FD-MM class-kernel body. Identical structure to liftFdMmKernel
/// except: (a) the point's position in the *original* boundary order is
/// loaded from origPos instead of being the map index, keeping the branch
/// state stride at the full boundary count; (b) uniform launches bake the
/// neighbor count into cf1.
memory::KernelDef fdMmClassKernel(ScalarKind real, int numBranches,
                                  int fixedNbr, bool mixed) {
  LIFTA_CHECK(numBranches >= 1, "FD-MM needs at least one branch");
  const RealOps R{real};
  const arith::Expr mb(numBranches);
  auto realArr = Type::array(R.type(), sz("cells"));
  auto stateArr = Type::array(R.type(), mb * sz("numB"));
  auto coefArr = Type::array(Type::array(R.type(), mb), sz("M"));

  auto cellSorted =
      param("cellSorted", Type::array(Type::int_(), sz("count")));
  auto matSorted = param("matSorted", Type::array(Type::int_(), sz("count")));
  auto origPos = param("origPos", Type::array(Type::int_(), sz("count")));
  auto nbrSorted = param("nbrSorted", Type::array(Type::int_(), sz("count")));
  auto beta = param("beta", Type::array(R.type(), sz("M")));
  auto biP = param("BI", coefArr);
  auto dP = param("D", coefArr);
  auto diP = param("DI", coefArr);
  auto fP = param("F", coefArr);
  auto next = param("next", realArr);
  auto prev = param("prev", realArr);
  auto g1P = param("g1", stateArr);
  auto v1P = param("v1", stateArr);
  auto v2P = param("v2", stateArr);
  auto cells = param("cells", Type::int_());
  auto count = param("count", Type::int_());
  auto numB = param("numB", Type::int_());
  auto m = param("M", Type::int_());
  auto l = param("l", R.type());

  auto tup = param("tup", nullptr);
  auto idx = param("idx", nullptr);
  auto mi = param("mi", nullptr);
  auto i = param("i", nullptr);
  auto nbr = param("nbr", nullptr);
  auto cf1 = param("cf1", nullptr);
  auto cf = param("cf", nullptr);
  auto prevVal = param("_prev", nullptr);
  auto g1Priv = param("_g1", nullptr);
  auto v2Priv = param("_v2", nullptr);
  auto nextAcc = param("_nextAcc", nullptr);
  auto nextVal = param("_next", nullptr);

  auto coefAt = [&](const ExprPtr& table, const ExprPtr& branch) {
    return arrayAccess(arrayAccess(table, mi), branch);
  };
  auto stateIdx = [&](const ExprPtr& branch) { return branch * numB + i; };

  auto bG = param("bg", nullptr);
  auto gatherG1 =
      mapSeq(lambda({bG}, arrayAccess(g1P, stateIdx(bG))), iota(mb));
  auto bV = param("bv", nullptr);
  auto gatherV2 =
      mapSeq(lambda({bV}, arrayAccess(v2P, stateIdx(bV))), iota(mb));

  auto acc = param("acc", nullptr);
  auto bR = param("br", nullptr);
  auto lossBody =
      acc - cf1 * coefAt(biP, bR) *
                (R.lit(2.0) * coefAt(dP, bR) * arrayAccess(v2Priv, bR) -
                 coefAt(fP, bR) * arrayAccess(g1Priv, bR));
  auto fold = reduceSeq(lambda({acc, bR}, lossBody), arrayAccess(next, idx),
                        iota(mb));

  auto bU = param("b", nullptr);
  auto v1Val = param("_v1", nullptr);
  auto stateUpdate = mapSeq(
      lambda({bU},
             let(v1Val,
                 coefAt(biP, bU) *
                     (nextVal - prevVal +
                      coefAt(diP, bU) * arrayAccess(v2Priv, bU) -
                      R.lit(2.0) * coefAt(fP, bU) * arrayAccess(g1Priv, bU)),
                 makeTuple(
                     {writeTo(arrayAccess(g1P, stateIdx(bU)),
                              arrayAccess(g1Priv, bU) +
                                  R.lit(0.5) * (v1Val +
                                                arrayAccess(v2Priv, bU))),
                      writeTo(arrayAccess(v1P, stateIdx(bU)), v1Val)}))),
      iota(mb));

  auto cf1Val = mixed ? l * R.fromInt(litInt(6) - nbr)
                      : l * R.fromInt(litInt(6) - litInt(fixedNbr));
  auto inner = let(
      cf1, cf1Val,
      let(cf, R.lit(0.5) * cf1 * arrayAccess(beta, mi),
          let(prevVal, arrayAccess(prev, idx),
              let(g1Priv, gatherG1,
                  let(v2Priv, gatherV2,
                      let(nextAcc, fold,
                          let(nextVal,
                              (nextAcc + cf * prevVal) / (R.lit(1.0) + cf),
                              makeTuple({writeTo(arrayAccess(next, idx),
                                                 nextVal),
                                         stateUpdate}))))))));
  auto withPos = let(i, get(tup, 2),
                     mixed ? let(nbr, get(tup, 3), inner) : inner);
  auto body = let(idx, get(tup, 0), let(mi, get(tup, 1), withPos));

  memory::KernelDef def;
  def.name = mixed ? std::string("lift_fdmm_class_mixed")
                   : "lift_fdmm_class_nbr" + std::to_string(fixedNbr);
  def.real = real;
  if (mixed) {
    def.params = {cellSorted, matSorted, origPos, nbrSorted, beta,
                  biP, dP, diP, fP, next, prev, g1P, v1P, v2P,
                  cells, count, numB, m, l};
    def.body = mapGlb(lambda({tup}, body),
                      zip({cellSorted, matSorted, origPos, nbrSorted}));
  } else {
    def.params = {cellSorted, matSorted, origPos, beta, biP, dP, diP, fP,
                  next, prev, g1P, v1P, v2P, cells, count, numB, m, l};
    def.body =
        mapGlb(lambda({tup}, body), zip({cellSorted, matSorted, origPos}));
  }
  return def;
}

}  // namespace

memory::KernelDef liftFiMmClassKernel(ScalarKind real, int fixedNbr) {
  LIFTA_CHECK(fixedNbr >= 0 && fixedNbr <= 5,
              "class kernel needs a boundary neighbor count");
  return fiMmClassKernel(real, fixedNbr, /*mixed=*/false);
}

memory::KernelDef liftFiMmClassMixedKernel(ScalarKind real) {
  return fiMmClassKernel(real, /*fixedNbr=*/-1, /*mixed=*/true);
}

memory::KernelDef liftFdMmClassKernel(ScalarKind real, int numBranches,
                                      int fixedNbr) {
  LIFTA_CHECK(fixedNbr >= 0 && fixedNbr <= 5,
              "class kernel needs a boundary neighbor count");
  return fdMmClassKernel(real, numBranches, fixedNbr, /*mixed=*/false);
}

memory::KernelDef liftFdMmClassMixedKernel(ScalarKind real, int numBranches) {
  return fdMmClassKernel(real, numBranches, /*fixedNbr=*/-1, /*mixed=*/true);
}

std::vector<memory::KernelDef> shippedKernels() {
  const ScalarKind f64 = ScalarKind::Double;
  return {
      liftVolumeKernel(f64),           liftFusedFiKernel(f64),
      liftVolumeStencil3DKernel(f64),  liftFiMmKernel(f64),
      liftFdMmKernel(f64, 3),          liftFiMmClassKernel(f64, 5),
      liftFiMmClassKernel(f64, 4),     liftFiMmClassMixedKernel(f64),
      liftFdMmClassKernel(f64, 3, 5),  liftFdMmClassKernel(f64, 3, 4),
      liftFdMmClassMixedKernel(f64, 3),
  };
}

analysis::AnalysisOptions acousticContracts() {
  using arith::Expr;
  analysis::BufferContract cell;
  cell.valueLo = Expr(0);
  cell.valueHi = Expr::var("cells") - Expr(1);
  cell.injective = true;
  analysis::BufferContract mat;
  mat.valueLo = Expr(0);
  mat.valueHi = Expr::var("M") - Expr(1);
  analysis::BufferContract origPos;
  origPos.valueLo = Expr(0);
  origPos.valueHi = Expr::var("numB") - Expr(1);
  origPos.injective = true;
  analysis::BufferContract nbr;
  nbr.valueLo = Expr(0);
  nbr.valueHi = Expr(5);

  analysis::AnalysisOptions opts;
  opts.contracts = {{"boundaryIndices", cell}, {"cellSorted", cell},
                    {"material", mat},         {"matSorted", mat},
                    {"origPos", origPos},      {"nbrSorted", nbr}};
  return opts;
}

}  // namespace lifta::lift_acoustics
