// The simulated OpenCL runtime.
//
// Mirrors the OpenCL 1.2 host API surface the paper's host code generator
// targets (§IV-A Table I): buffers with explicit write/read (ToGPU/ToHost),
// programs built from source (JIT via the host compiler), kernels with
// indexed arguments, and in-order command queues whose events expose
// profiling times — the paper reports medians over 2000 executions from the
// OpenCL profiling API.
//
// NDRange execution: work-groups are distributed over a thread pool; the
// work-items of one group run sequentially on one thread (the generated
// kernels are barrier-free, so this is semantics-preserving).
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/thread_pool.hpp"
#include "ocl/device.hpp"
#include "ocl/jit.hpp"

namespace lifta::ocl {

/// Work-item identity passed to generated kernels. Layout must match the
/// lifta_wi_ctx struct in the codegen preamble.
struct WiCtx {
  long gid[3];
  long gsz[3];
  long lid[3];
  long lsz[3];
  long wg[3];
  long nwg[3];
};

using KernelEntry = void (*)(void**, const WiCtx*);

/// Device-side memory. Host code moves data with write()/read(), mirroring
/// enqueueWriteBuffer/enqueueReadBuffer.
class Buffer {
public:
  explicit Buffer(std::size_t bytes) : mem_(bytes) {}

  std::size_t size() const { return mem_.size(); }
  void* data() { return mem_.data(); }
  const void* data() const { return mem_.data(); }

  void write(const void* src, std::size_t bytes, std::size_t offset = 0);
  void read(void* dst, std::size_t bytes, std::size_t offset = 0) const;

private:
  AlignedBuffer mem_;
};
using BufferPtr = std::shared_ptr<Buffer>;

/// Profiling record of one enqueued command.
struct Event {
  double milliseconds = 0.0;
};

struct NDRange {
  std::array<std::size_t, 3> global{1, 1, 1};
  std::array<std::size_t, 3> local{1, 1, 1};
  int dims = 1;

  static NDRange linear(std::size_t globalSize, std::size_t localSize);
  /// Whole work-groups of `localSize` covering `items` work-items, capped
  /// at `maxGlobal` (rounded down to whole groups), at least one group.
  static NDRange covering(std::size_t items, std::size_t localSize,
                          std::size_t maxGlobal);
};

/// The launch rule for a 1-D kernel over `n` elements, shared by every host
/// that launches generated kernels.
///
/// chunk <= 0 (grid-stride kernel): NDRange::covering(n, local, maxGlobal);
/// any cap is fine, the kernel strides.
///
/// chunk > 0 (chunk-scheduled kernel: work-item i covers [i*c, (i+1)*c)
/// with c = max(ceil(n / global), chunk)): ceil(n / chunk) work-items, so
/// every launched item but the padding owns a full chunk. When that gives
/// fewer than ThreadPool::kChunksPerThread work-groups per thread of
/// `pool` (the pool the launch runs on), the work-group shrinks (never
/// below one item) until the items spread over about that many groups; the
/// per-item chunk never shrinks, so the generated source is unaffected.
/// Without the shrink a 3,536-point boundary launch is 56 items in one
/// 64-item group: one pool thread does all of it.
NDRange launchRange(std::size_t n, int chunk, std::size_t local,
                    const ThreadPool& pool, std::size_t maxGlobal = 1u << 16);

class Context;

/// A compiled program; a thin wrapper over the JIT'ed shared object.
class Program {
public:
  /// Entry point lookup (clCreateKernel analogue).
  KernelEntry entry(const std::string& kernelName) const;
  const std::string& source() const { return source_; }

private:
  friend class Context;
  Program(std::string source, std::shared_ptr<SharedObject> so)
      : source_(std::move(source)), so_(std::move(so)) {}
  std::string source_;
  std::shared_ptr<SharedObject> so_;
};
using ProgramPtr = std::shared_ptr<Program>;

/// A kernel instance with bound arguments.
class Kernel {
public:
  Kernel(ProgramPtr program, const std::string& name);

  const std::string& name() const { return name_; }

  void setArg(int index, BufferPtr buffer);
  void setArg(int index, int value);
  void setArg(int index, float value);
  void setArg(int index, double value);

  /// Number of argument slots currently set (contiguity is checked at
  /// launch).
  std::size_t argCount() const { return args_.size(); }

private:
  friend class CommandQueue;
  struct ScalarSlot {
    std::array<unsigned char, 8> bytes{};
  };
  using Arg = std::variant<std::monostate, BufferPtr, ScalarSlot>;

  void setScalar(int index, const void* src, std::size_t bytes);
  void ensureSlot(int index);

  ProgramPtr program_;
  std::string name_;
  KernelEntry entry_ = nullptr;
  std::vector<Arg> args_;
};

/// Owns the device profile and program builds. Kernels run on
/// ThreadPool::global(), the pool every other parallel stage of the process
/// shares, so device launches never oversubscribe the machine.
class Context {
public:
  explicit Context(DeviceProfile profile = nativeDevice());

  const DeviceProfile& device() const { return profile_; }

  /// clBuildProgram analogue; cached process-wide by (flags, source) hash.
  /// `buildOptions` are extra compiler flags (clBuildProgram's options
  /// string); they append after the JIT's base flags, so a later -O wins.
  ProgramPtr buildProgram(const std::string& source,
                          const std::string& buildOptions = "");

  BufferPtr allocate(std::size_t bytes) {
    return std::make_shared<Buffer>(bytes);
  }

private:
  DeviceProfile profile_;
};

/// In-order queue with profiling. Execution is synchronous: each enqueue
/// completes before returning, and the returned Event holds its duration.
class CommandQueue {
public:
  explicit CommandQueue(Context& ctx) : ctx_(ctx) {}

  Event enqueueWrite(Buffer& dst, const void* src, std::size_t bytes);
  Event enqueueRead(const Buffer& src, void* dst, std::size_t bytes);
  Event enqueueNDRange(Kernel& kernel, const NDRange& range);

  /// All work is already complete (in-order synchronous queue); provided for
  /// API fidelity.
  void finish() {}

private:
  Context& ctx_;
};

}  // namespace lifta::ocl
