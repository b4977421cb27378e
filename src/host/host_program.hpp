// Host-side LIFT primitives and host code generation (paper §IV-A, §V-A).
//
// The paper extends LIFT so that the *host* program — buffer transfers,
// kernel-argument binding, multi-kernel scheduling, and in-place output
// aliasing — is expressed with four primitives and generated, not written:
//
//   OclKernel(f, args...)  -> kernelCall(...)   launch a device kernel
//   ToGPU(x)               -> toGPU(...)        host-to-device transfer
//   ToHost(x)              -> toHost(...)       device-to-host transfer
//   WriteTo(dst, k)        -> writeTo(...)      kernel output lands in dst
//
// A HostProgram is the expression DAG built from these primitives over
// host parameters (Param) and LIFT-generated kernels (Listing 5 is the
// canonical example). It can:
//   * generate readable OpenCL host code (generateHostCode) matching the
//     "Generated code" column of Table I, and
//   * compile into an executable schedule over the simulated OpenCL
//     runtime, with per-kernel profiling events — which is how the
//     benchmarks drive the LIFT path end to end.
//
// Because the queue is in-order, a kernel consuming another kernel's output
// is implicitly synchronized, exactly as §V-A describes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/kernel_codegen.hpp"
#include "memory/kernel_def.hpp"
#include "ocl/runtime.hpp"

namespace lifta::host {

struct HostNode;
using HostPtr = std::shared_ptr<HostNode>;

enum class HOp { Param, ToGPU, ToHost, KernelCall, WriteTo };

/// One generated device-kernel invocation inside the host program.
struct KernelSpec {
  /// LIFT IR kernel definition (compiled via src/codegen).
  memory::KernelDef def;

  /// Arguments in the kernel's ABI slot order, excluding the implicit
  /// output buffer: either a device-value node or the name of a declared
  /// scalar.
  struct Arg {
    HostPtr buffer;          // device value (ToGPU / KernelCall / WriteTo)
    std::string scalarName;  // or: declared scalar
  };
  std::vector<Arg> args;

  /// Launch size: the name of a declared int scalar holding the logical
  /// element count. The NDRange comes from ocl::launchRange over it, with
  /// work-groups of 64 (grid-stride kernels tolerate any cap).
  std::string launchCountScalar;
};

struct HostNode {
  HOp op = HOp::Param;
  std::string name;      // Param: host buffer name; also used for labels
  HostPtr input;         // ToGPU / ToHost child
  HostPtr dest;          // WriteTo destination
  HostPtr call;          // WriteTo kernel call
  KernelSpec kernel;     // KernelCall
  int id = 0;            // stable id for codegen labels
};

enum class ScalarType { Int, Real };

class CompiledHostProgram;

class HostProgram {
public:
  /// Declares a host-memory input (bound to a pointer at run time).
  HostPtr hostParam(const std::string& name);
  /// Declares a scalar kernel argument.
  void declareScalar(const std::string& name, ScalarType type);

  HostPtr toGPU(HostPtr hostValue);
  HostPtr kernelCall(KernelSpec spec);
  /// Host-level WriteTo: the kernel writes its output into `dest`'s buffer
  /// (suppressing any fresh output allocation), and the expression's value
  /// is that same buffer.
  HostPtr writeTo(HostPtr dest, HostPtr call);
  /// Marks a device value as a program output, copied back at the end of
  /// each run into the host pointer bound under `outputName`. An output
  /// nobody binds is still computed but stays on the device, where
  /// CompiledHostProgram::deviceBuffer reaches it.
  void toHost(HostPtr deviceValue, const std::string& outputName);

  /// Readable generated host code (clCreateBuffer / enqueueWriteBuffer /
  /// setArg / enqueueNDRangeKernel / enqueueReadBuffer sequence).
  std::string generateHostCode(ir::ScalarKind real) const;

  /// Generates (CodegenOptions::fromEnv()) and builds every kernel against
  /// a context. Runs the host-program lint first (src/analysis/host_lint)
  /// and throws AnalysisError on error-severity findings unless
  /// LIFTA_SKIP_VERIFY is set; the dataflow lint (src/analysis/dataflow)
  /// reports warnings only and runs in lifta-lint, not here.
  std::shared_ptr<CompiledHostProgram> compile(ocl::Context& ctx,
                                               ir::ScalarKind real);

  /// Read-only views of the DAG for static analysis and tooling.
  const std::vector<HostPtr>& nodes() const { return order_; }
  const std::vector<std::pair<HostPtr, std::string>>& outputs() const {
    return outputs_;
  }
  const std::map<std::string, ScalarType>& scalarDecls() const {
    return scalars_;
  }

private:
  friend class CompiledHostProgram;
  std::vector<HostPtr> params_;
  std::map<std::string, ScalarType> scalars_;
  std::vector<std::pair<HostPtr, std::string>> outputs_;
  std::vector<HostPtr> order_;  // creation order (topological by construction)
  int nextId_ = 0;

  HostPtr record(HostPtr node);
};

/// The executable schedule. Bind inputs/outputs/scalars, then run().
class CompiledHostProgram {
public:
  void bindBuffer(const std::string& paramName, const void* data,
                  std::size_t bytes);
  /// Binds the host pointer a toHost output is copied into after each
  /// run; throws lifta::Error when no output has that name. An output
  /// nobody binds stays on the device.
  void bindOutput(const std::string& outputName, void* data,
                  std::size_t bytes);
  void setInt(const std::string& name, int value);
  void setReal(const std::string& name, double value);

  struct RunStats {
    /// (kernel entry name, event milliseconds) per launch, in order.
    std::vector<std::pair<std::string, double>> kernels;
    double transferMs = 0.0;
  };

  /// Executes the whole schedule and copies every bound output back. With
  /// skipUploads, ToGPU copies are elided (device buffers keep their
  /// previous contents) — used by iterative time stepping after the first
  /// run.
  RunStats run(bool skipUploads = false);

  /// Device buffer behind a ToGPU/KernelCall/WriteTo node (for rotation in
  /// time-stepping drivers).
  ocl::BufferPtr deviceBuffer(const HostPtr& node) const;
  /// Replaces the buffer behind a node (e.g. prev/curr rotation).
  void setDeviceBuffer(const HostPtr& node, ocl::BufferPtr buffer);

  /// Hot-swaps the compiled program behind one generated kernel call
  /// (KernelCall node or WriteTo wrapping it) — the tiered-execution
  /// upgrade path. The replacement must share the original's ABI (same
  /// memory plan and output convention; enforced); buffers and bound
  /// scalars carry over untouched, so the next run() picks up the new code
  /// at a step boundary with bit-identical state.
  void replaceKernelProgram(const HostPtr& node,
                            const codegen::GeneratedKernel& gen,
                            ocl::ProgramPtr program);

private:
  friend class HostProgram;
  struct KernelInstance {
    ocl::ProgramPtr program;
    std::unique_ptr<ocl::Kernel> kernel;
    std::string entry;
    memory::MemoryPlan plan;
    bool hasOut = false;
    int launchChunk = 0;  // GeneratedKernel::preferredChunk
    ocl::BufferPtr aliasOut;   // host WriteTo destination buffer
  };

  KernelInstance& instanceFor(const HostPtr& node);

  CompiledHostProgram(HostProgram prog, ocl::Context& ctx, ir::ScalarKind real);

  ocl::BufferPtr evalDevice(const HostPtr& node, bool skipUploads,
                            RunStats& stats);

  HostProgram prog_;
  ocl::Context& ctx_;
  ir::ScalarKind real_;
  std::map<std::string, std::pair<const void*, std::size_t>> hostInputs_;
  std::map<std::string, std::pair<void*, std::size_t>> hostOutputs_;
  std::map<std::string, int> ints_;
  std::map<std::string, double> reals_;
  std::map<const HostNode*, ocl::BufferPtr> deviceBuffers_;
  std::map<const HostNode*, ocl::BufferPtr> memo_;  // per-run evaluation memo
  std::map<const HostNode*, KernelInstance> kernels_;
};

}  // namespace lifta::host
