// lifta-lint: runs the full static-analysis suite (symbolic bounds prover,
// scatter-write race detector, translation validation of the optimizer,
// host-program lint, host dataflow def-use lint) over every shipped model —
// the acoustic volume/boundary kernels (FI, FI-MM, FD-MM, the Listing-6
// stencil variant, the fission class kernels) and the geophysics FDTD2D
// kernels — plus the host programs that schedule them: the device tier's
// own Listing-5 step programs (buildStepProgram), fused and fission, and
// the FDTD2D step.
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
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "acoustics/sim_params.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/equiv.hpp"
#include "analysis/host_lint.hpp"
#include "analysis/passes.hpp"
#include "geophys/lift_kernels.hpp"
#include "host/host_program.hpp"
#include "lift_acoustics/kernels.hpp"
#include "lift_acoustics/step_program.hpp"

namespace {

using namespace lifta;
using namespace lifta::analysis;

/// The device tier's fission plan for its base room, a 96x72x56 box at the
/// default threshold: six face launches, an edge launch and a mixed corner
/// launch.
std::vector<acoustics::BoundaryLaunch> fissionPlan() {
  const auto grid =
      acoustics::voxelize({acoustics::RoomShape::Box, 96, 72, 56}, 1);
  return acoustics::planBoundaryLaunches(grid.boundaryClasses,
                                         acoustics::kBoundaryFissionMinPoints);
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
      contracts ? lift_acoustics::acousticContracts() : AnalysisOptions{};

  std::vector<Report> reports;
  const acoustics::SimParams params;  // the default Courant number
  auto kernels = lift_acoustics::shippedKernels();
  kernels.insert(kernels.end(),
                 {geophys::liftEmEzKernel(ir::ScalarKind::Double),
                  geophys::liftEmHKernel(ir::ScalarKind::Double),
                  geophys::liftEmHxKernel(ir::ScalarKind::Double),
                  geophys::liftEmHyKernel(ir::ScalarKind::Double)});
  for (const auto& def : kernels) {
    if (selected(def.name)) {
      Report r = analyzeKernelDef(def, opts);
      // Translation validation: prove the optimized emission equivalent to
      // the unoptimized one (store summaries; see analysis/equiv.hpp).
      r.append(validateTranslation(def));
      reports.push_back(std::move(r));
    }
    // Constant-specialized variant (tiered execution, DESIGN.md §12): the
    // same translation validation with the device tier's job-class
    // constants baked into both walks — what the runtime gate checks before
    // a hot-swap. Kernels the device tier never specializes (no M, l or l2
    // parameter) have no such subject.
    const auto spec =
        lift_acoustics::classSpecialization(def, 3, params.l(), params.l2());
    const std::string specName = def.name + "#specialized";
    if (!spec.empty() && selected(specName)) {
      Report r = validateTranslation(def, spec);
      r.subject = specName;
      reports.push_back(std::move(r));
    }
  }
  struct HostSubject {
    host::HostProgram prog;
    std::string name;
  };
  std::vector<HostSubject> hosts;
  using lift_acoustics::DeviceModel;
  const auto step = [](DeviceModel model,
                       const std::vector<acoustics::BoundaryLaunch>& plan) {
    return lift_acoustics::buildStepProgram(model, ir::ScalarKind::Double, 3,
                                            plan)
        .prog;
  };
  const auto fission = fissionPlan();
  hosts.push_back({step(DeviceModel::FiMm, {}), "listing5-fimm"});
  hosts.push_back({step(DeviceModel::FdMm, {}), "listing5-fdmm"});
  hosts.push_back({step(DeviceModel::FiMm, fission), "listing5-fimm-fission"});
  hosts.push_back({step(DeviceModel::FdMm, fission), "listing5-fdmm-fission"});
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
