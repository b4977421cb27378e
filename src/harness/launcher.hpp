// Helpers for launching generated kernels: name-based argument binding
// against a kernel's MemoryPlan, so tests and benchmarks can provide
// arguments as {name -> buffer/scalar} regardless of ABI slot order.
#pragma once

#include <map>
#include <string>
#include <variant>

#include "codegen/kernel_codegen.hpp"
#include "ocl/runtime.hpp"

namespace lifta::harness {

using ArgValue = std::variant<ocl::BufferPtr, int, float, double>;
using ArgMap = std::map<std::string, ArgValue>;

/// Binds every argument of `plan` from `values` by name.
/// Throws lifta::Error when a name is missing or a scalar/buffer kind
/// mismatches the plan.
void bindKernelArgs(ocl::Kernel& kernel, const memory::MemoryPlan& plan,
                    const ArgMap& values);

/// Uploads a host vector into a fresh device buffer.
template <typename T>
ocl::BufferPtr upload(ocl::Context& ctx, ocl::CommandQueue& q,
                      const std::vector<T>& host) {
  auto buf = ctx.allocate(host.size() * sizeof(T));
  if (!host.empty()) q.enqueueWrite(*buf, host.data(), host.size() * sizeof(T));
  return buf;
}

/// Downloads a device buffer into a host vector of `count` elements.
template <typename T>
std::vector<T> download(ocl::CommandQueue& q, const ocl::BufferPtr& buf,
                        std::size_t count) {
  std::vector<T> host(count);
  if (count != 0) q.enqueueRead(*buf, host.data(), count * sizeof(T));
  return host;
}

/// Picks the launch configuration used throughout the benchmarks: a
/// grid-stride NDRange whose global size covers at most `n` work-items
/// rounded to work-groups of `local` (ocl::NDRange::covering).
ocl::NDRange launchConfig(std::size_t n, std::size_t local,
                          std::size_t maxGlobal = 1u << 16);

/// Launch geometry matched to how a generated kernel distributes work:
/// ocl::launchRange with the kernel's preferredChunk, the one launch rule
/// CompiledHostProgram also applies to every kernel call. Chunk-scheduled
/// kernels get ceil(n / chunk) work-items, in work-groups smaller than
/// `local` when that would leave fewer than ThreadPool::kChunksPerThread
/// groups per thread of `pool` (the launching context's pool); grid-stride
/// kernels get launchConfig over `n`.
ocl::NDRange launchConfigFor(const codegen::GeneratedKernel& gen,
                             std::size_t n, std::size_t local,
                             const ThreadPool& pool,
                             std::size_t maxGlobal = 1u << 16);

}  // namespace lifta::harness
