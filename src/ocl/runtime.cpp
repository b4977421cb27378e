#include "ocl/runtime.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace lifta::ocl {

// --- Buffer -----------------------------------------------------------------

void Buffer::write(const void* src, std::size_t bytes, std::size_t offset) {
  // Checked without `offset + bytes`, which wraps for huge offsets and would
  // accept out-of-range writes.
  LIFTA_CHECK(bytes <= mem_.size() && offset <= mem_.size() - bytes,
              "buffer write out of range");
  std::memcpy(static_cast<char*>(mem_.data()) + offset, src, bytes);
}

void Buffer::read(void* dst, std::size_t bytes, std::size_t offset) const {
  LIFTA_CHECK(bytes <= mem_.size() && offset <= mem_.size() - bytes,
              "buffer read out of range");
  std::memcpy(dst, static_cast<const char*>(mem_.data()) + offset, bytes);
}

// --- NDRange ----------------------------------------------------------------

NDRange NDRange::linear(std::size_t globalSize, std::size_t localSize) {
  // Zero global size is rejected here so both construction and enqueue
  // report the same error instead of deferring to launch time.
  if (globalSize == 0) {
    throw OclError("global size must be nonzero");
  }
  if (localSize == 0 || globalSize % localSize != 0) {
    throw OclError("global size " + std::to_string(globalSize) +
                   " is not a multiple of local size " +
                   std::to_string(localSize));
  }
  NDRange r;
  r.global = {globalSize, 1, 1};
  r.local = {localSize, 1, 1};
  r.dims = 1;
  return r;
}

NDRange NDRange::covering(std::size_t items, std::size_t localSize,
                          std::size_t maxGlobal) {
  LIFTA_CHECK(localSize > 0, "local size must be positive");
  std::size_t global = (items + localSize - 1) / localSize * localSize;
  if (global > maxGlobal) global = maxGlobal / localSize * localSize;
  if (global == 0) global = localSize;
  return linear(global, localSize);
}

NDRange launchRange(std::size_t n, int chunk, std::size_t local,
                    const ThreadPool& pool, std::size_t maxGlobal) {
  LIFTA_CHECK(local > 0, "local size must be positive");
  if (chunk <= 0) return NDRange::covering(n, local, maxGlobal);
  const auto c = static_cast<std::size_t>(chunk);
  const std::size_t items = std::max<std::size_t>(1, (n + c - 1) / c);
  // Work-groups run as the pool's parallelFor iterations, which it splits
  // into kChunksPerThread chunks per thread; fewer groups leave threads idle.
  const std::size_t groups = ThreadPool::kChunksPerThread * pool.threadCount();
  if ((items + local - 1) / local < groups) {
    local = std::max<std::size_t>(1, (items + groups - 1) / groups);
  }
  return NDRange::covering(items, local, maxGlobal);
}

// --- Program / Kernel ---------------------------------------------------------

KernelEntry Program::entry(const std::string& kernelName) const {
  return reinterpret_cast<KernelEntry>(so_->symbol(kernelName));
}

Kernel::Kernel(ProgramPtr program, const std::string& name)
    : program_(std::move(program)), name_(name) {
  entry_ = program_->entry(name);
}

void Kernel::ensureSlot(int index) {
  LIFTA_CHECK(index >= 0, "negative kernel argument index");
  if (static_cast<std::size_t>(index) >= args_.size()) {
    args_.resize(static_cast<std::size_t>(index) + 1);
  }
}

void Kernel::setArg(int index, BufferPtr buffer) {
  // A null buffer would only surface as a null dereference at launch;
  // reject it here where the faulty argument index is still known.
  if (!buffer) {
    throw OclError("kernel '" + name_ + "' argument " +
                   std::to_string(index) + " is a null buffer");
  }
  ensureSlot(index);
  args_[static_cast<std::size_t>(index)] = std::move(buffer);
}

void Kernel::setScalar(int index, const void* src, std::size_t bytes) {
  ensureSlot(index);
  ScalarSlot slot;
  std::memcpy(slot.bytes.data(), src, bytes);
  args_[static_cast<std::size_t>(index)] = slot;
}

void Kernel::setArg(int index, int value) { setScalar(index, &value, sizeof value); }
void Kernel::setArg(int index, float value) { setScalar(index, &value, sizeof value); }
void Kernel::setArg(int index, double value) { setScalar(index, &value, sizeof value); }

// --- Context ------------------------------------------------------------------

Context::Context(DeviceProfile profile) : profile_(std::move(profile)) {}

ProgramPtr Context::buildProgram(const std::string& source,
                                 const std::string& buildOptions) {
  auto so = Jit::instance().compile(source, buildOptions);
  return ProgramPtr(new Program(source, std::move(so)));
}

// --- CommandQueue ----------------------------------------------------------------

Event CommandQueue::enqueueWrite(Buffer& dst, const void* src,
                                 std::size_t bytes) {
  Timer t;
  dst.write(src, bytes);
  return Event{t.milliseconds()};
}

Event CommandQueue::enqueueRead(const Buffer& src, void* dst,
                                std::size_t bytes) {
  Timer t;
  src.read(dst, bytes);
  return Event{t.milliseconds()};
}

Event CommandQueue::enqueueNDRange(Kernel& kernel, const NDRange& range) {
  // Validate the launch configuration the way an OpenCL 1.2 driver would.
  std::size_t numGroups[3];
  std::size_t wgSize = 1;
  for (int d = 0; d < 3; ++d) {
    const std::size_t g = range.global[static_cast<std::size_t>(d)];
    const std::size_t l = range.local[static_cast<std::size_t>(d)];
    if (l == 0 || g == 0 || g % l != 0) {
      throw OclError("invalid NDRange in dimension " + std::to_string(d));
    }
    numGroups[d] = g / l;
    wgSize *= l;
  }
  if (wgSize > static_cast<std::size_t>(ctx_.device().maxWorkGroupSize)) {
    throw OclError("work-group size " + std::to_string(wgSize) +
                   " exceeds device limit " +
                   std::to_string(ctx_.device().maxWorkGroupSize));
  }

  // Snapshot the argument pointers once; all work-items share them.
  std::vector<void*> args(kernel.args_.size());
  for (std::size_t i = 0; i < kernel.args_.size(); ++i) {
    auto& a = kernel.args_[i];
    if (std::holds_alternative<BufferPtr>(a)) {
      args[i] = std::get<BufferPtr>(a)->data();
    } else if (std::holds_alternative<Kernel::ScalarSlot>(a)) {
      args[i] = std::get<Kernel::ScalarSlot>(a).bytes.data();
    } else {
      throw OclError("kernel '" + kernel.name_ + "' argument " +
                     std::to_string(i) + " is unset");
    }
  }

  const std::size_t totalGroups = numGroups[0] * numGroups[1] * numGroups[2];
  const KernelEntry entry = kernel.entry_;

  Timer t;
  ThreadPool::global().parallelFor(totalGroups, [&](std::size_t linearGroup) {
    WiCtx ctx;
    const std::size_t wg0 = linearGroup % numGroups[0];
    const std::size_t wg1 = (linearGroup / numGroups[0]) % numGroups[1];
    const std::size_t wg2 = linearGroup / (numGroups[0] * numGroups[1]);
    const std::size_t wg[3] = {wg0, wg1, wg2};
    for (int d = 0; d < 3; ++d) {
      ctx.gsz[d] = static_cast<long>(range.global[static_cast<std::size_t>(d)]);
      ctx.lsz[d] = static_cast<long>(range.local[static_cast<std::size_t>(d)]);
      ctx.wg[d] = static_cast<long>(wg[d]);
      ctx.nwg[d] = static_cast<long>(numGroups[d]);
    }
    // Iterate the group's work-items sequentially (barrier-free kernels).
    for (std::size_t l2 = 0; l2 < range.local[2]; ++l2) {
      for (std::size_t l1 = 0; l1 < range.local[1]; ++l1) {
        for (std::size_t l0 = 0; l0 < range.local[0]; ++l0) {
          ctx.lid[0] = static_cast<long>(l0);
          ctx.lid[1] = static_cast<long>(l1);
          ctx.lid[2] = static_cast<long>(l2);
          ctx.gid[0] = static_cast<long>(wg[0] * range.local[0] + l0);
          ctx.gid[1] = static_cast<long>(wg[1] * range.local[1] + l1);
          ctx.gid[2] = static_cast<long>(wg[2] * range.local[2] + l2);
          entry(args.data(), &ctx);
        }
      }
    }
  });
  return Event{t.milliseconds()};
}

}  // namespace lifta::ocl
