// lifta-lint: runs the full static-analysis suite (symbolic bounds prover,
// scatter-write race detector, translation validation of the optimizer,
// host-program lint, host dataflow def-use lint) over every shipped model —
// the acoustic volume/boundary kernels (FI, FI-MM, FD-MM, the Listing-6
// stencil variant) and the geophysics FDTD2D kernels — plus
// the Listing-5 host programs that schedule them.
//
// Usage: lifta-lint [--text] [--no-contracts] [--werror] [--subject S]
//   --text          human-readable findings instead of the JSON document
//   --no-contracts  drop the buffer contracts (shows what the race detector
//                   reports about raw scatter writes)
//   --werror        exit nonzero on warnings too, not just errors
//   --subject S     analyze only subjects whose name contains S (kernel
//                   names and host-program labels; repeatable)
//
// Exit status: 0 when no error-severity finding exists (under --werror: no
// error and no warning), 1 otherwise.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/equiv.hpp"
#include "analysis/host_lint.hpp"
#include "analysis/passes.hpp"
#include "arith/expr.hpp"
#include "geophys/lift_kernels.hpp"
#include "host/host_program.hpp"
#include "lift_acoustics/kernels.hpp"

namespace {

using lifta::arith::Expr;
using namespace lifta;
using namespace lifta::analysis;

/// Runtime facts about the voxelizer's outputs (acoustics/geometry.cpp):
/// boundaryIndices lists distinct cell ids, material entries select one of
/// the M materials.
AnalysisOptions acousticContracts() {
  AnalysisOptions opts;
  BufferContract bi;
  bi.valueLo = Expr(0);
  bi.valueHi = Expr::var("cells") - Expr(1);
  bi.injective = true;
  opts.contracts["boundaryIndices"] = bi;

  BufferContract mat;
  mat.valueLo = Expr(0);
  mat.valueHi = Expr::var("M") - Expr(1);
  opts.contracts["material"] = mat;

  // Per-launch slices of the BoundaryClassPlan sorted layout (boundary
  // kernel fission): cellSorted is a permutation slice of boundaryIndices,
  // matSorted selects a material, origPos is the point's slot in the
  // original boundary order (distinct per point, bounded by the full set).
  BufferContract cellSorted = bi;
  opts.contracts["cellSorted"] = cellSorted;

  BufferContract matSorted = mat;
  opts.contracts["matSorted"] = matSorted;

  BufferContract origPos;
  origPos.valueLo = Expr(0);
  origPos.valueHi = Expr::var("numB") - Expr(1);
  origPos.injective = true;
  opts.contracts["origPos"] = origPos;

  BufferContract nbrSorted;
  nbrSorted.valueLo = Expr(0);
  nbrSorted.valueHi = Expr(5);
  opts.contracts["nbrSorted"] = nbrSorted;
  return opts;
}

/// The Listing-5 two-kernel acoustic step (volume + boundary, §IV-A).
host::HostProgram listing5Program(bool fdMm) {
  using host::KernelSpec;
  host::HostProgram prog;
  for (const char* s : {"nx", "nxny", "cells", "numB", "M"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  for (const char* s : {"l", "l2"}) {
    prog.declareScalar(s, host::ScalarType::Real);
  }
  auto prev1G = prog.toGPU(prog.hostParam("prev1_h"));
  auto prev2G = prog.toGPU(prog.hostParam("prev2_h"));
  auto nbrsG = prog.toGPU(prog.hostParam("nbrs_h"));
  auto boundG = prog.toGPU(prog.hostParam("boundaries_h"));
  auto matG = prog.toGPU(prog.hostParam("material_h"));
  auto betaG = prog.toGPU(prog.hostParam("beta_h"));

  KernelSpec volume;
  volume.def = lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double);
  volume.args = {{prev2G, ""},       {prev1G, ""},      {nbrsG, ""},
                 {nullptr, "nx"},    {nullptr, "nxny"}, {nullptr, "cells"},
                 {nullptr, "l2"}};
  volume.launchCountScalar = "cells";
  auto nextG = prog.kernelCall(volume);

  KernelSpec boundary;
  if (fdMm) {
    boundary.def = lift_acoustics::liftFdMmKernel(ir::ScalarKind::Double, 3);
    auto biG = prog.toGPU(prog.hostParam("BI_h"));
    auto dG = prog.toGPU(prog.hostParam("D_h"));
    auto diG = prog.toGPU(prog.hostParam("DI_h"));
    auto fG = prog.toGPU(prog.hostParam("F_h"));
    auto g1G = prog.toGPU(prog.hostParam("g1_h"));
    auto v1G = prog.toGPU(prog.hostParam("v1_h"));
    auto v2G = prog.toGPU(prog.hostParam("v2_h"));
    boundary.args = {{boundG, ""},       {matG, ""},        {nbrsG, ""},
                     {betaG, ""},        {biG, ""},         {dG, ""},
                     {diG, ""},          {fG, ""},          {nextG, ""},
                     {prev2G, ""},       {g1G, ""},         {v1G, ""},
                     {v2G, ""},          {nullptr, "cells"}, {nullptr, "numB"},
                     {nullptr, "M"},     {nullptr, "l"}};
  } else {
    boundary.def = lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double);
    boundary.args = {{boundG, ""},       {matG, ""},        {nbrsG, ""},
                     {betaG, ""},        {nextG, ""},       {prev2G, ""},
                     {nullptr, "cells"}, {nullptr, "numB"}, {nullptr, "M"},
                     {nullptr, "l"}};
  }
  boundary.launchCountScalar = "numB";
  auto updated = prog.writeTo(nextG, prog.kernelCall(boundary));
  prog.toHost(updated, "next_h");
  return prog;
}

/// One FDTD2D time step: Ez update then the fused H update, both in place.
host::HostProgram emStepProgram() {
  using host::KernelSpec;
  host::HostProgram prog;
  for (const char* s : {"nx", "ny", "cells"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  prog.declareScalar("S", host::ScalarType::Real);
  auto ezG = prog.toGPU(prog.hostParam("ez_h"));
  auto hxG = prog.toGPU(prog.hostParam("hx_h"));
  auto hyG = prog.toGPU(prog.hostParam("hy_h"));
  auto caG = prog.toGPU(prog.hostParam("ca_h"));
  auto cbG = prog.toGPU(prog.hostParam("cb_h"));

  KernelSpec ez;
  ez.def = geophys::liftEmEzKernel(ir::ScalarKind::Double);
  ez.args = {{ezG, ""},       {hxG, ""},       {hyG, ""},
             {caG, ""},       {cbG, ""},       {nullptr, "nx"},
             {nullptr, "ny"}, {nullptr, "cells"}};
  ez.launchCountScalar = "cells";
  auto ezDone = prog.writeTo(ezG, prog.kernelCall(ez));

  KernelSpec h;
  h.def = geophys::liftEmHKernel(ir::ScalarKind::Double);
  h.args = {{hxG, ""},       {hyG, ""},       {ezDone, ""},   {nullptr, "nx"},
            {nullptr, "ny"}, {nullptr, "cells"}, {nullptr, "S"}};
  h.launchCountScalar = "cells";
  auto hDone = prog.writeTo(hxG, prog.kernelCall(h));
  prog.toHost(hDone, "hx_h_out");
  prog.toHost(ezDone, "ez_h_out");
  return prog;
}

/// Representative constants for the specialized-variant lint subjects: a
/// consistent 16x14x12 box discretization. Specialization only substitutes
/// these into index algebra, so any concrete values exercise the same
/// simplification paths the tiered runtime bakes in; consistent ones
/// (nxny == nx*ny etc.) additionally let proven-guard elimination fire the
/// way it does for a real room.
memory::Specialization representativeSpec(const memory::KernelDef& def) {
  static const std::map<std::string, std::int64_t> ints = {
      {"nx", 16},     {"ny", 14},   {"nz", 12},  {"nxny", 224},
      {"cells", 2688}, {"numB", 1154}, {"M", 4},  {"count", 512}};
  static const std::map<std::string, double> reals = {
      {"l", 0.3}, {"l2", 0.09}, {"S", 0.5}};
  memory::Specialization spec;
  for (const auto& p : def.params) {
    if (p->type->isArray()) continue;
    if (p->type->scalarKind() == ir::ScalarKind::Int) {
      const auto it = ints.find(p->name);
      spec.ints[p->name] = it != ints.end() ? it->second : 8;
    } else {
      const auto it = reals.find(p->name);
      spec.reals[p->name] = it != reals.end() ? it->second : 0.25;
    }
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bool text = false;
  bool contracts = true;
  bool werror = false;
  std::vector<std::string> subjects;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--text") == 0) {
      text = true;
    } else if (std::strcmp(argv[i], "--no-contracts") == 0) {
      contracts = false;
    } else if (std::strcmp(argv[i], "--werror") == 0) {
      werror = true;
    } else if (std::strcmp(argv[i], "--subject") == 0 && i + 1 < argc) {
      subjects.push_back(argv[++i]);
    } else {
      std::cerr << "usage: lifta-lint [--text] [--no-contracts] [--werror]"
                   " [--subject S]\n";
      return 2;
    }
  }
  const auto selected = [&subjects](const std::string& name) {
    if (subjects.empty()) return true;
    for (const auto& s : subjects) {
      if (name.find(s) != std::string::npos) return true;
    }
    return false;
  };

  const AnalysisOptions opts =
      contracts ? acousticContracts() : AnalysisOptions{};

  std::vector<Report> reports;
  const auto kernels = {
      lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFusedFiKernel(ir::ScalarKind::Double),
      lift_acoustics::liftVolumeStencil3DKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFdMmKernel(ir::ScalarKind::Double, 3),
      // Topology-class fission kernels: face (nbr 5), edge (nbr 4) and the
      // mixed fused-fallback variants.
      lift_acoustics::liftFiMmClassKernel(ir::ScalarKind::Double, 5),
      lift_acoustics::liftFiMmClassKernel(ir::ScalarKind::Double, 4),
      lift_acoustics::liftFiMmClassMixedKernel(ir::ScalarKind::Double),
      lift_acoustics::liftFdMmClassKernel(ir::ScalarKind::Double, 3, 5),
      lift_acoustics::liftFdMmClassKernel(ir::ScalarKind::Double, 3, 4),
      lift_acoustics::liftFdMmClassMixedKernel(ir::ScalarKind::Double, 3),
      geophys::liftEmEzKernel(ir::ScalarKind::Double),
      geophys::liftEmHKernel(ir::ScalarKind::Double),
      geophys::liftEmHxKernel(ir::ScalarKind::Double),
      geophys::liftEmHyKernel(ir::ScalarKind::Double),
  };
  for (const auto& def : kernels) {
    if (selected(def.name)) {
      Report r = analyzeKernelDef(def, opts);
      // Translation validation: prove the optimized emission equivalent to
      // the unoptimized one (store summaries; see analysis/equiv.hpp).
      r.append(validateTranslation(def));
      reports.push_back(std::move(r));
    }
    // Constant-specialized variant (tiered execution, DESIGN.md §12): the
    // same translation validation with representative constants baked into
    // both walks — what the runtime gate checks before a hot-swap.
    const std::string specName = def.name + "#specialized";
    if (selected(specName)) {
      Report r = validateTranslation(def, representativeSpec(def));
      r.subject = specName;
      reports.push_back(std::move(r));
    }
  }
  struct HostSubject {
    host::HostProgram prog;
    std::string name;
  };
  std::vector<HostSubject> hosts;
  hosts.push_back({listing5Program(/*fdMm=*/false), "listing5-fimm"});
  hosts.push_back({listing5Program(/*fdMm=*/true), "listing5-fdmm"});
  hosts.push_back({emStepProgram(), "fdtd2d-step"});
  for (const auto& h : hosts) {
    if (!selected(h.name)) continue;
    Report r = lintHostProgram(h.prog, h.name);
    r.append(lintHostDataflow(h.prog, h.name));
    reports.push_back(std::move(r));
  }

  std::size_t errors = 0, warnings = 0, infos = 0;
  for (const auto& r : reports) {
    errors += r.count(Severity::Error);
    warnings += r.count(Severity::Warning);
    infos += r.count(Severity::Info);
  }

  if (text) {
    for (const auto& r : reports) {
      std::cout << "== " << r.subject << " ==\n";
      const std::string body = r.toText();
      std::cout << (body.empty() ? "  clean\n" : body);
    }
  } else {
    std::cout << "[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i != 0) std::cout << ",\n ";
      std::cout << reports[i].toJson();
    }
    std::cout << "]\n";
  }
  std::cerr << "lifta-lint: " << reports.size() << " subjects, " << errors
            << " errors, " << warnings << " warnings, " << infos
            << " notes\n";
  if (errors != 0) return 1;
  if (werror && warnings != 0) return 1;
  return 0;
}
