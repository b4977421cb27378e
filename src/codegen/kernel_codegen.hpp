// OpenCL-style C kernel generation from LIFT IR (paper §III-A, §IV-B).
//
// The generator lowers a type-checked KernelDef into a single self-contained
// C/C++ source string with a uniform ABI:
//
//   extern "C" void <name>(void** lifta_args, const lifta_wi_ctx* ctx);
//
// where lifta_args holds the kernel arguments in MemoryPlan order (array
// arguments as raw pointers, scalars by pointer to a value slot) and ctx
// carries the OpenCL work-item identity (get_global_id & friends are
// provided as inline helpers over ctx). The simulated OpenCL runtime
// (src/ocl) JIT-compiles this source and invokes the entry per work-item.
//
// Codegen is destination-passing: array-typed expressions are emitted into
// an output *view*; the paper's WriteTo/Concat/Skip/ArrayCons primitives act
// purely by rewriting that view (offsetting, aliasing), which reproduces the
// in-place scattered updates of §IV-B without touching the loop emitter.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "memory/allocator.hpp"
#include "memory/kernel_def.hpp"
#include "memory/specialization.hpp"
#include "view/view.hpp"

namespace lifta::codegen {

/// Switches for the optimizer pipeline that runs between view resolution and
/// C emission. All passes are value-preserving: optimized kernels produce
/// bit-identical outputs to the unoptimized generator (enforced by
/// tests/codegen/test_codegen_opt.cpp). `fromEnv()` honours
/// LIFTA_CODEGEN_OPT=0 as a global opt-out.
struct CodegenOptions {
  bool optimize = true;         // master switch; false reproduces the
                                // pre-optimizer generator byte-for-byte
  bool simplify = true;         // prover-backed index simplification +
                                // proven-guard elimination
  bool cse = true;              // named locals for shared index terms,
                                // loop-invariant terms hoisted per level
  bool chunkSchedule = true;    // contiguous-chunk work distribution for
                                // global (Glb) dimension-0 loops
  bool restrictPointers = true; // __restrict on array arguments
  int chunk = 64;               // minimum items per work-item under
                                // chunkSchedule

  /// Scalar parameters to bake as compile-time constants. Loop bounds,
  /// index algebra and pad guards re-simplify against the concrete values
  /// (divisions by runtime strides become divisions by literals), while
  /// data arithmetic is untouched — specialized kernels stay bit-identical
  /// to generic ones run with the same bound scalars. The kernel ABI is
  /// unchanged: specialized scalar slots are still unpacked, just unused.
  memory::Specialization spec;

  static CodegenOptions fromEnv();
};

struct GeneratedKernel {
  std::string name;
  std::string source;        // full compilable source (preamble + entry)
  std::string body;          // entry function body only (golden tests)
  memory::MemoryPlan plan;   // ABI argument order
  bool optimized = false;    // generated with CodegenOptions::optimize
  int preferredChunk = 0;    // >0: kernel self-schedules contiguous chunks
                             // of at least this many dim-0 items; hosts
                             // launch it with ocl::launchRange
  /// Non-empty for constant-specialized kernels: the Specialization digest
  /// baked into the source header (and thereby the JIT cache key).
  std::string specDigest;
  /// Extra compiler flags the kernel should be built with (JIT appends them
  /// after its base flags, so a later -O level wins). Specialized kernels
  /// are the throughput tier and get the expensive -O3 pipeline — the
  /// literal trip counts and strides are what let its vectorizer and
  /// unroller actually fire — while generic tier-0 kernels keep the fast
  /// -O2 build for first-step latency. Never includes fast-math: per-lane
  /// IEEE semantics are what keep specialized output bit-identical.
  std::string buildFlags;
};

/// Generates a kernel. The body is type-checked internally.
/// Throws TypeError / CodegenError on malformed programs.
GeneratedKernel generateKernel(const memory::KernelDef& def);

/// As above with explicit optimizer options (the no-argument overload uses
/// CodegenOptions::fromEnv()).
GeneratedKernel generateKernel(const memory::KernelDef& def,
                               const CodegenOptions& opts);

/// The fixed source preamble (work-item context struct and id helpers)
/// shared by every generated kernel; exposed for the runtime's host-side
/// launcher, which must agree on the lifta_wi_ctx layout. It includes no
/// header, so a kernel that needs one must carry its own #include.
std::string kernelPreamble(ir::ScalarKind real);

}  // namespace lifta::codegen
