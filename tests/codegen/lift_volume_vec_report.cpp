// Vectorization evidence for the device tier's specialized volume kernel:
// generates lift_volume_step under the device tier's own job-class
// specialization (l2 baked; nx, nxny and cells stay run-time scalars, so
// the speculated range is symbolic) in f32 and f64, compiles each with the
// JIT's compiler command, base flags and the kernel's own build flags plus
// GCC's -fopt-info-vec-optimized, and fails unless GCC reports a vectorized
// loop for both. Registered as the ctest lift_volume_vectorization_report
// (GNU, Release).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "acoustics/sim_params.hpp"
#include "codegen/kernel_codegen.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/jit.hpp"

using namespace lifta;

namespace {

/// Runs `cmd` through the shell and returns what it printed.
std::string capture(const std::string& cmd, int& status) {
  std::string out;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) {
    status = -1;
    return out;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  status = pclose(p);
  return out;
}

}  // namespace

int main() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lifta_vec_report_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);

  bool ok = true;
  for (const auto real : {ir::ScalarKind::Float, ir::ScalarKind::Double}) {
    const char* tag = real == ir::ScalarKind::Float ? "f32" : "f64";
    const auto def = lift_acoustics::liftVolumeKernel(real);
    const acoustics::SimParams params;
    codegen::CodegenOptions opts;
    opts.spec = lift_acoustics::classSpecialization(def, 3, params.l(),
                                                    params.l2());
    const codegen::GeneratedKernel k = codegen::generateKernel(def, opts);

    const std::filesystem::path src = dir / (std::string(tag) + ".c");
    const std::filesystem::path obj = dir / (std::string(tag) + ".so");
    std::ofstream(src) << k.source;
    int status = 0;
    const std::string remarks = capture(
        ocl::Jit::compilerCommand() + " " + ocl::Jit::baseFlags() + " " +
            k.buildFlags + " -fopt-info-vec-optimized -x c++ '" +
            src.string() + "' -o '" + obj.string() + "' 2>&1",
        status);
    const bool vectorized =
        status == 0 && remarks.find("loop vectorized") != std::string::npos;
    std::cout << "lift_volume_step " << tag << " (" << k.buildFlags << "): "
              << (vectorized ? "vectorized" : "NOT vectorized") << "\n"
              << remarks;
    ok = ok && vectorized;
  }
  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
