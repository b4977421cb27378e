#include "lift_acoustics/step_program.hpp"

#include <string>

#include "lift_acoustics/kernels.hpp"

namespace lifta::lift_acoustics {

StepProgram buildStepProgram(
    DeviceModel model, ir::ScalarKind precision, int numBranches,
    const std::vector<acoustics::BoundaryLaunch>& launches) {
  using host::HostPtr;
  using Arg = host::KernelSpec::Arg;
  const bool fdmm = model == DeviceModel::FdMm;
  const bool fused = launches.empty();
  StepProgram sp;
  auto& prog = sp.prog;
  for (const char* s : {"nx", "nxny", "cells", "numB", "M"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  for (const char* s : {"l", "l2"}) {
    prog.declareScalar(s, host::ScalarType::Real);
  }
  // Nodes are created in the order the generated host code lists them:
  // the shared uploads, the volume, the FD-MM tables and state, then each
  // boundary launch after its own uploads.
  sp.prev1 = prog.toGPU(prog.hostParam("prev1_h"));
  sp.prev2 = prog.toGPU(prog.hostParam("prev2_h"));
  const HostPtr nbrs = prog.toGPU(prog.hostParam("nbrs_h"));
  // The flat boundary lists ride along only with the fused kernel; each
  // fission launch uploads its slice of the class-sorted layout instead.
  HostPtr bound, mat;
  if (fused) {
    bound = prog.toGPU(prog.hostParam("boundaries_h"));
    mat = prog.toGPU(prog.hostParam("material_h"));
  }
  const HostPtr beta = prog.toGPU(prog.hostParam("beta_h"));

  host::KernelSpec volume;
  volume.def = liftVolumeKernel(precision);
  volume.args = {{sp.prev2, ""},      {sp.prev1, ""},    {nbrs, ""},
                 {nullptr, "nx"},     {nullptr, "nxny"}, {nullptr, "cells"},
                 {nullptr, "l2"}};
  volume.launchCountScalar = "cells";
  sp.kernels.push_back(prog.kernelCall(std::move(volume)));

  std::vector<HostPtr> coeffs;  // BI, D, DI, F
  HostPtr g1;
  if (fdmm) {
    for (const char* name : {"bi_h", "d_h", "di_h", "f_h"}) {
      coeffs.push_back(prog.toGPU(prog.hostParam(name)));
    }
    sp.v1 = prog.toGPU(prog.hostParam("v1_h"));
    sp.v2 = prog.toGPU(prog.hostParam("v2_h"));
    g1 = prog.toGPU(prog.hostParam("g1_h"));
  }

  // One boundary launch over `count` points, writing the running `next`
  // in place. `args` holds the kernel's index buffers; the rest of its
  // parameter list (kernels.hpp) is shared by all six boundary kernels.
  const auto boundary = [&](memory::KernelDef def, std::vector<Arg> args,
                            const std::string& count) {
    const HostPtr next = sp.kernels.back();
    args.push_back({beta, ""});
    for (const auto& c : coeffs) args.push_back({c, ""});
    args.push_back({next, ""});
    args.push_back({sp.prev2, ""});
    if (fdmm) {
      for (const auto& s : {g1, sp.v1, sp.v2}) args.push_back({s, ""});
    }
    args.push_back({nullptr, "cells"});
    args.push_back({nullptr, count});
    // Fission FD-MM kernels still stride the branch state by the full set.
    if (fdmm && !fused) args.push_back({nullptr, "numB"});
    args.push_back({nullptr, "M"});
    args.push_back({nullptr, "l"});
    host::KernelSpec k;
    k.def = std::move(def);
    k.args = std::move(args);
    k.launchCountScalar = count;
    sp.kernels.push_back(prog.writeTo(next, prog.kernelCall(std::move(k))));
  };

  if (fused) {
    boundary(fdmm ? liftFdMmKernel(precision, numBranches)
                  : liftFiMmKernel(precision),
             {{bound, ""}, {mat, ""}, {nbrs, ""}}, "numB");
  }
  // Within a step the launches write disjoint cells (cellSorted is a
  // permutation of the boundary set), so their chain order is immaterial
  // to the result.
  for (std::size_t k = 0; k < launches.size(); ++k) {
    const int nbr = launches[k].fixedNbr;
    const bool mixed = nbr < 0;
    const std::string tag = std::to_string(k);
    const std::string count = "count" + tag;
    prog.declareScalar(count, host::ScalarType::Int);
    const HostPtr cell = prog.toGPU(prog.hostParam("cellsorted" + tag + "_h"));
    const HostPtr matS = prog.toGPU(prog.hostParam("matsorted" + tag + "_h"));
    HostPtr nbrS, pos;
    if (mixed) nbrS = prog.toGPU(prog.hostParam("nbrsorted" + tag + "_h"));
    if (fdmm) pos = prog.toGPU(prog.hostParam("origpos" + tag + "_h"));
    std::vector<Arg> args = {{cell, ""}, {matS, ""}};
    if (pos) args.push_back({pos, ""});
    if (nbrS) args.push_back({nbrS, ""});
    boundary(fdmm ? (mixed ? liftFdMmClassMixedKernel(precision, numBranches)
                           : liftFdMmClassKernel(precision, numBranches, nbr))
                  : (mixed ? liftFiMmClassMixedKernel(precision)
                           : liftFiMmClassKernel(precision, nbr)),
             std::move(args), count);
  }
  prog.toHost(sp.kernels.back(), "next_h");
  return sp;
}

}  // namespace lifta::lift_acoustics
