#include "harness/launcher.hpp"

#include "common/error.hpp"

namespace lifta::harness {

void bindKernelArgs(ocl::Kernel& kernel, const memory::MemoryPlan& plan,
                    const ArgMap& values) {
  for (std::size_t slot = 0; slot < plan.args.size(); ++slot) {
    const auto& arg = plan.args[slot];
    auto it = values.find(arg.name);
    if (it == values.end()) {
      throw Error("kernel argument '" + arg.name + "' not provided");
    }
    const ArgValue& v = it->second;
    const int i = static_cast<int>(slot);
    if (arg.isArray) {
      if (!std::holds_alternative<ocl::BufferPtr>(v)) {
        throw Error("kernel argument '" + arg.name + "' must be a buffer");
      }
      kernel.setArg(i, std::get<ocl::BufferPtr>(v));
      continue;
    }
    switch (arg.type->scalarKind()) {
      case ir::ScalarKind::Int:
      case ir::ScalarKind::Bool:
        if (!std::holds_alternative<int>(v)) {
          throw Error("kernel argument '" + arg.name + "' must be int");
        }
        kernel.setArg(i, std::get<int>(v));
        break;
      case ir::ScalarKind::Float:
        if (!std::holds_alternative<float>(v)) {
          throw Error("kernel argument '" + arg.name + "' must be float");
        }
        kernel.setArg(i, std::get<float>(v));
        break;
      case ir::ScalarKind::Double:
        if (!std::holds_alternative<double>(v)) {
          throw Error("kernel argument '" + arg.name + "' must be double");
        }
        kernel.setArg(i, std::get<double>(v));
        break;
    }
  }
}

ocl::NDRange launchConfig(std::size_t n, std::size_t local,
                          std::size_t maxGlobal) {
  return ocl::NDRange::covering(n, local, maxGlobal);
}

ocl::NDRange launchConfigFor(const codegen::GeneratedKernel& gen,
                             std::size_t n, std::size_t local,
                             const ThreadPool& pool, std::size_t maxGlobal) {
  return ocl::launchRange(n, gen.preferredChunk, local, pool, maxGlobal);
}

}  // namespace lifta::harness
