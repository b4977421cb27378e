#include "host/host_program.hpp"

#include <algorithm>

#include "analysis/dataflow.hpp"
#include "analysis/host_lint.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "ir/typecheck.hpp"

namespace lifta::host {

namespace {
HostPtr makeNode(HOp op) {
  auto n = std::make_shared<HostNode>();
  n->op = op;
  return n;
}
}  // namespace

// --- HostProgram construction -------------------------------------------------

HostPtr HostProgram::record(HostPtr node) {
  node->id = nextId_++;
  order_.push_back(node);
  return node;
}

HostPtr HostProgram::hostParam(const std::string& name) {
  auto n = makeNode(HOp::Param);
  n->name = name;
  params_.push_back(n);
  return record(n);
}

void HostProgram::declareScalar(const std::string& name, ScalarType type) {
  scalars_[name] = type;
}

HostPtr HostProgram::toGPU(HostPtr hostValue) {
  LIFTA_CHECK(hostValue && hostValue->op == HOp::Param,
              "ToGPU expects a host parameter");
  auto n = makeNode(HOp::ToGPU);
  n->name = hostValue->name + "_g";
  n->input = std::move(hostValue);
  return record(n);
}

HostPtr HostProgram::deviceAlloc(const std::string& name) {
  auto n = makeNode(HOp::DeviceAlloc);
  n->name = name;
  return record(n);
}

HostPtr HostProgram::kernelCall(KernelSpec spec) {
  LIFTA_CHECK(spec.def.has_value() || !spec.source.empty(),
              "kernel call needs a definition or source");
  for (const auto& a : spec.args) {
    if (a.buffer == nullptr && a.scalarName.empty()) {
      throw Error("kernel argument is neither buffer nor scalar");
    }
    if (!a.scalarName.empty() && scalars_.count(a.scalarName) == 0) {
      throw Error("kernel argument references undeclared scalar '" +
                  a.scalarName + "'");
    }
  }
  LIFTA_CHECK(scalars_.count(spec.launchCountScalar) != 0,
              "launch count scalar is not declared");
  auto n = makeNode(HOp::KernelCall);
  n->name = spec.def ? spec.def->name : spec.entry;
  n->kernel = std::move(spec);
  return record(n);
}

HostPtr HostProgram::writeTo(HostPtr dest, HostPtr call) {
  LIFTA_CHECK(call && call->op == HOp::KernelCall,
              "host WriteTo wraps a kernel call");
  LIFTA_CHECK(dest != nullptr, "host WriteTo needs a destination");
  auto n = makeNode(HOp::WriteTo);
  n->name = "writeTo_" + dest->name;
  n->dest = std::move(dest);
  n->call = std::move(call);
  return record(n);
}

void HostProgram::toHost(HostPtr deviceValue, const std::string& outputName) {
  LIFTA_CHECK(deviceValue != nullptr, "ToHost needs a device value");
  auto n = makeNode(HOp::ToHost);
  n->name = outputName;
  n->input = deviceValue;
  record(n);
  outputs_.emplace_back(std::move(deviceValue), outputName);
}

// --- host code generation -------------------------------------------------------

std::string HostProgram::generateHostCode(ir::ScalarKind real) const {
  std::ostringstream out;
  out << "// generated OpenCL host code (lift-acoustics host primitives)\n";
  out << "// precision: "
      << (real == ir::ScalarKind::Double ? "double" : "float") << "\n";
  out << "cl_context ctx = ...; cl_command_queue queue = ...; // in-order\n\n";

  std::map<const HostNode*, std::string> valueName;
  for (const auto& node : order_) {
    switch (node->op) {
      case HOp::Param:
        valueName[node.get()] = node->name;
        break;

      case HOp::ToGPU:
        out << "cl_mem " << node->name << " = clCreateBuffer(ctx, bytes("
            << node->input->name << "));\n";
        out << "clEnqueueWriteBuffer(queue, " << node->name << ", "
            << node->input->name << ");\n";
        valueName[node.get()] = node->name;
        break;

      case HOp::DeviceAlloc:
        out << "cl_mem " << node->name
            << " = clCreateBuffer(ctx, bytes(" << node->name
            << ")); // uninitialized device scratch\n";
        valueName[node.get()] = node->name;
        break;

      case HOp::KernelCall: {
        const std::string kname = node->name;
        const std::string result = "out_" + std::to_string(node->id) + "_g";
        const bool generated = node->kernel.def.has_value();
        bool hasOut = false;
        if (generated) {
          // Report the allocation decision the memory allocator makes.
          auto def = *node->kernel.def;
          ir::typecheck(def.body);
          hasOut = memory::planMemory(def).hasOutBuffer;
        }
        int slot = 0;
        for (const auto& a : node->kernel.args) {
          out << kname << ".setArg(" << slot++ << ", "
              << (a.buffer ? valueName.at(a.buffer.get()) : a.scalarName)
              << ");\n";
        }
        if (hasOut) {
          out << "cl_mem " << result << " = clCreateBuffer(ctx, ...);\n";
          out << kname << ".setArg(" << slot << ", " << result << ");\n";
          valueName[node.get()] = result;
        } else {
          valueName[node.get()] = kname + "_inplace";
        }
        out << "clEnqueueNDRangeKernel(queue, " << kname << ", global="
            << node->kernel.launchCountScalar
            << ", local=" << node->kernel.localSize << ");\n";
        break;
      }

      case HOp::WriteTo: {
        // The wrapped kernel's output buffer *is* the destination buffer —
        // rendered by re-binding the out argument, no extra allocation.
        const HostNode* call = node->call.get();
        out << "// WriteTo: " << call->name << " writes into "
            << valueName.at(node->dest.get()) << " in place\n";
        valueName[node.get()] = valueName.at(node->dest.get());
        break;
      }

      case HOp::ToHost:
        out << "clEnqueueReadBuffer(queue, "
            << valueName.at(node->input.get()) << ", " << node->name
            << ");\n";
        break;
    }
  }
  return out.str();
}

// --- compilation ------------------------------------------------------------------

std::shared_ptr<CompiledHostProgram> HostProgram::compile(ocl::Context& ctx,
                                                          ir::ScalarKind real) {
  // Lint the DAG before building any kernel: catches host parameters used as
  // device values, dead compute, and unordered overlapping writes at compile
  // time instead of mid-run. The dataflow pass adds def-use reasoning over
  // buffer identities (uninitialized reads of device allocations, writes no
  // one observes, uploads a kernel fully overwrites).
  analysis::verifyHostProgram(*this);
  analysis::verifyHostDataflow(*this);
  return std::shared_ptr<CompiledHostProgram>(new CompiledHostProgram(
      *this, ctx, real, codegen::CodegenOptions::fromEnv()));
}

std::shared_ptr<CompiledHostProgram> HostProgram::compile(
    ocl::Context& ctx, ir::ScalarKind real,
    const codegen::CodegenOptions& opts) {
  analysis::verifyHostProgram(*this);
  analysis::verifyHostDataflow(*this);
  return std::shared_ptr<CompiledHostProgram>(
      new CompiledHostProgram(*this, ctx, real, opts));
}

CompiledHostProgram::CompiledHostProgram(HostProgram prog, ocl::Context& ctx,
                                         ir::ScalarKind real,
                                         const codegen::CodegenOptions& opts)
    : prog_(std::move(prog)), ctx_(ctx), real_(real) {
  // Build every kernel up front (clBuildProgram at "compile" time).
  for (const auto& node : prog_.order_) {
    if (node->op != HOp::KernelCall) continue;
    KernelInstance inst;
    inst.node = node.get();
    inst.localSize = node->kernel.localSize;
    if (node->kernel.def.has_value()) {
      auto def = *node->kernel.def;
      def.real = real_;
      codegen::CodegenOptions kopts = opts;
      if (!node->kernel.spec.empty()) kopts.spec = node->kernel.spec;
      const auto gen = codegen::generateKernel(def, kopts);
      inst.program = ctx_.buildProgram(gen.source, gen.buildFlags);
      inst.entry = gen.name;
      inst.plan = gen.plan;
      inst.generated = true;
      inst.hasOut = gen.plan.hasOutBuffer;
      inst.launchChunk = gen.preferredChunk;
      if (static_cast<std::size_t>(inst.hasOut ? 1 : 0) +
              node->kernel.args.size() !=
          gen.plan.args.size()) {
        throw Error("kernel '" + inst.entry + "' expects " +
                    std::to_string(gen.plan.args.size() -
                                   (inst.hasOut ? 1 : 0)) +
                    " arguments, got " +
                    std::to_string(node->kernel.args.size()));
      }
    } else {
      inst.program = ctx_.buildProgram(node->kernel.source);
      inst.entry = node->kernel.entry;
      inst.generated = false;
      inst.hasOut = false;
    }
    inst.kernel = std::make_unique<ocl::Kernel>(inst.program, inst.entry);
    kernels_[node.get()] = std::move(inst);
  }
}

void CompiledHostProgram::bindBuffer(const std::string& paramName,
                                     const void* data, std::size_t bytes) {
  hostInputs_[paramName] = {data, bytes};
}

void CompiledHostProgram::bindOutput(const std::string& outputName, void* data,
                                     std::size_t bytes) {
  // run() skips unbound outputs, so a misspelled name must fail here rather
  // than leave the caller's buffer silently unwritten.
  const auto& outs = prog_.outputs_;
  if (std::none_of(outs.begin(), outs.end(),
                   [&](const auto& o) { return o.second == outputName; })) {
    throw Error("no output named '" + outputName + "'");
  }
  hostOutputs_[outputName] = {data, bytes};
}

void CompiledHostProgram::bindAllocBytes(const std::string& allocName,
                                         std::size_t bytes) {
  allocBytes_[allocName] = bytes;
}

void CompiledHostProgram::setInt(const std::string& name, int value) {
  ints_[name] = value;
}

void CompiledHostProgram::setReal(const std::string& name, double value) {
  reals_[name] = value;
}

ocl::BufferPtr CompiledHostProgram::deviceBuffer(const HostPtr& node) const {
  auto it = deviceBuffers_.find(node.get());
  if (it == deviceBuffers_.end()) {
    throw Error("node '" + node->name + "' has no device buffer yet");
  }
  return it->second;
}

void CompiledHostProgram::setDeviceBuffer(const HostPtr& node,
                                          ocl::BufferPtr buffer) {
  deviceBuffers_[node.get()] = std::move(buffer);
}

CompiledHostProgram::KernelInstance& CompiledHostProgram::instanceFor(
    const HostPtr& node) {
  const HostNode* k = (node && node->op == HOp::WriteTo) ? node->call.get()
                                                         : node.get();
  auto it = kernels_.find(k);
  if (it == kernels_.end()) {
    throw Error("node '" + (node ? node->name : std::string("<null>")) +
                "' is not a kernel call");
  }
  return it->second;
}

const CompiledHostProgram::KernelInstance& CompiledHostProgram::instanceFor(
    const HostPtr& node) const {
  return const_cast<CompiledHostProgram*>(this)->instanceFor(node);
}

void CompiledHostProgram::setLocalSize(const HostPtr& node,
                                       std::size_t local) {
  LIFTA_CHECK(local > 0, "local size must be positive");
  instanceFor(node).localSize = local;
}

std::size_t CompiledHostProgram::localSize(const HostPtr& node) const {
  return instanceFor(node).localSize;
}

ocl::NDRange CompiledHostProgram::launchRange(const HostPtr& node,
                                              std::size_t local) const {
  const KernelInstance& inst = instanceFor(node);
  const KernelSpec& spec = inst.node->kernel;
  const auto n = static_cast<std::size_t>(ints_.at(spec.launchCountScalar));
  return ocl::launchRange(n, inst.launchChunk, local, ctx_.pool(),
                          spec.maxGlobal);
}

void CompiledHostProgram::replaceKernelProgram(
    const HostPtr& node, const codegen::GeneratedKernel& gen,
    ocl::ProgramPtr program) {
  KernelInstance& inst = instanceFor(node);
  LIFTA_CHECK(inst.generated,
              "hot-swap targets generated kernels only (handwritten kernels "
              "have no memory plan to check against)");
  // ABI compatibility: every argument slot the launch code binds must mean
  // the same thing in the replacement. Specialized kernels keep the full
  // plan (baked scalars are unpacked but unused), so this is an equality
  // check, not a remapping.
  LIFTA_CHECK(gen.plan.args.size() == inst.plan.args.size() &&
                  gen.plan.hasOutBuffer == inst.plan.hasOutBuffer,
              "hot-swap replacement for '" + inst.entry +
                  "' has an incompatible memory plan");
  inst.kernel = std::make_unique<ocl::Kernel>(program, gen.name);
  inst.program = std::move(program);
  inst.entry = gen.name;
  inst.launchChunk = gen.preferredChunk;
  // localSize (possibly autotuned) and all bound buffers/scalars carry
  // over; evalDevice re-binds every argument each run, so the swap is
  // complete at the next step boundary.
}

ocl::BufferPtr CompiledHostProgram::evalDevice(const HostPtr& node,
                                               bool skipUploads,
                                               RunStats& stats) {
  // Each node is evaluated at most once per run: Listing 5's next_g is both
  // the WriteTo destination and a boundary-kernel argument, and must launch
  // the volume kernel exactly once.
  if (memo_.count(node.get()) != 0) return memo_[node.get()];
  auto cached = deviceBuffers_.find(node.get());

  switch (node->op) {
    case HOp::Param:
      throw Error("host parameter '" + node->name +
                  "' used directly as a device value; wrap it in ToGPU");

    case HOp::ToGPU: {
      auto it = hostInputs_.find(node->input->name);
      if (it == hostInputs_.end()) {
        throw Error("host parameter '" + node->input->name + "' not bound");
      }
      const auto [data, bytes] = it->second;
      ocl::BufferPtr buf;
      if (cached != deviceBuffers_.end() &&
          cached->second->size() == bytes) {
        buf = cached->second;
      } else {
        buf = ctx_.allocate(bytes);
        deviceBuffers_[node.get()] = buf;
      }
      if (!skipUploads) {
        ocl::CommandQueue q(ctx_);
        stats.transferMs += q.enqueueWrite(*buf, data, bytes).milliseconds;
      }
      memo_[node.get()] = buf;
      return buf;
    }

    case HOp::DeviceAlloc: {
      auto it = allocBytes_.find(node->name);
      if (it == allocBytes_.end()) {
        throw Error("device allocation '" + node->name +
                    "' not sized; call bindAllocBytes");
      }
      const std::size_t bytes = it->second;
      ocl::BufferPtr buf;
      if (cached != deviceBuffers_.end() && cached->second->size() == bytes) {
        buf = cached->second;
      } else {
        buf = ctx_.allocate(bytes);
        deviceBuffers_[node.get()] = buf;
      }
      memo_[node.get()] = buf;
      return buf;
    }

    case HOp::KernelCall: {
      auto& inst = kernels_.at(node.get());
      ocl::CommandQueue q(ctx_);
      int slot = 0;
      for (const auto& a : node->kernel.args) {
        if (a.buffer) {
          inst.kernel->setArg(slot, evalDevice(a.buffer, skipUploads, stats));
        } else {
          // Scalar: use the declared type (and kernel precision for reals).
          const ScalarType st = prog_.scalars_.at(a.scalarName);
          if (st == ScalarType::Int) {
            auto it = ints_.find(a.scalarName);
            if (it == ints_.end()) {
              throw Error("int scalar '" + a.scalarName + "' not set");
            }
            inst.kernel->setArg(slot, it->second);
          } else {
            auto it = reals_.find(a.scalarName);
            if (it == reals_.end()) {
              throw Error("real scalar '" + a.scalarName + "' not set");
            }
            if (real_ == ir::ScalarKind::Double) {
              inst.kernel->setArg(slot, it->second);
            } else {
              inst.kernel->setArg(slot, static_cast<float>(it->second));
            }
          }
        }
        ++slot;
      }
      if (inst.hasOut) {
        ocl::BufferPtr out = inst.aliasOut;
        if (!out) {
          // Allocate the fresh output from the body's symbolic size, using
          // the bound scalar values as the environment.
          std::map<std::string, std::int64_t> env;
          for (const auto& [k, v] : ints_) env[k] = v;
          const auto count = inst.plan.outType->flatCount().evaluate(env);
          const std::size_t elem =
              real_ == ir::ScalarKind::Double ? sizeof(double) : sizeof(float);
          const std::size_t bytes = static_cast<std::size_t>(count) * elem;
          if (cached != deviceBuffers_.end() &&
              cached->second->size() == bytes) {
            out = cached->second;
          } else {
            out = ctx_.allocate(bytes);
          }
        }
        inst.kernel->setArg(slot, out);
        deviceBuffers_[node.get()] = out;
      }
      const auto ev =
          q.enqueueNDRange(*inst.kernel, launchRange(node, inst.localSize));
      stats.kernels.emplace_back(inst.entry, ev.milliseconds);
      inst.aliasOut = nullptr;  // reset per run
      if (!inst.hasOut) {
        // Effect-only kernel: its "value" is its first written buffer — by
        // convention the in-place destination bound by a host WriteTo.
        memo_[node.get()] = nullptr;
        return nullptr;
      }
      memo_[node.get()] = deviceBuffers_.at(node.get());
      return memo_[node.get()];
    }

    case HOp::WriteTo: {
      auto dest = evalDevice(node->dest, skipUploads, stats);
      auto& inst = kernels_.at(node->call.get());
      if (inst.hasOut) {
        inst.aliasOut = dest;  // redirect output into the destination
      }
      evalDevice(node->call, skipUploads, stats);
      deviceBuffers_[node.get()] = dest;
      memo_[node.get()] = dest;
      return dest;
    }

    case HOp::ToHost:
      return evalDevice(node->input, skipUploads, stats);
  }
  throw Error("unreachable host node");
}

CompiledHostProgram::RunStats CompiledHostProgram::run(bool skipUploads) {
  RunStats stats;
  memo_.clear();
  for (const auto& [node, outputName] : prog_.outputs_) {
    auto buf = evalDevice(node, skipUploads, stats);
    if (buf == nullptr) {
      throw Error("output '" + outputName + "' has no device buffer");
    }
    // An unbound output stays on the device (read it through
    // deviceBuffer); only bound ones are copied back.
    auto it = hostOutputs_.find(outputName);
    if (it == hostOutputs_.end()) continue;
    auto [data, bytes] = it->second;
    ocl::CommandQueue q(ctx_);
    stats.transferMs += q.enqueueRead(*buf, data, bytes).milliseconds;
  }
  return stats;
}

}  // namespace lifta::host
