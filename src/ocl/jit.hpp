// JIT compilation of generated kernel source.
//
// The simulated OpenCL runtime's clBuildProgram: kernel source (C/C++ text
// produced by src/codegen or written by hand for the baselines) is written
// to a scratch directory, compiled into a shared object with the host
// compiler, and dlopen'ed.
//
// Programs are content-addressed: the cache key is a structural hash of the
// compiler command, the compile flags and the full source text. Two layers
// sit in front of the compiler:
//
//   * an in-memory LRU of loaded shared objects (capacity
//     LIFTA_JIT_MEM_CACHE, default 256), so the 2000-iteration benchmark
//     loops pay the compile cost once, and
//   * an optional on-disk cache (LIFTA_JIT_CACHE_DIR or setDiskCacheDir):
//     compiled objects are copied there under their content hash and later
//     processes dlopen them directly, skipping the compiler entirely.
//
// The compiler runs as a child process with a deadline
// (kDefaultCompileTimeout, far above a cold compile): a hung compiler is
// killed and its build fails, instead of wedging the caller — for tiered
// kernels, the one CompileQueue worker every later job depends on.
//
// Compilation flags deliberately exclude -march=native / fast-math: both the
// LIFT-generated and the hand-written kernels must execute the same FP
// operation sequence as the portable C++ reference so correctness tests can
// compare bitwise.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

namespace lifta::ocl {

/// A compiled, dlopen'ed shared object. Closed on destruction.
class SharedObject {
public:
  ~SharedObject();
  SharedObject(const SharedObject&) = delete;
  SharedObject& operator=(const SharedObject&) = delete;

  /// Looks up a symbol; throws OclError if absent.
  void* symbol(const std::string& name) const;

  /// Path of the compiled object (for diagnostics).
  const std::string& path() const { return path_; }

private:
  friend class Jit;
  SharedObject(void* handle, std::string path)
      : handle_(handle), path_(std::move(path)) {}
  void* handle_ = nullptr;
  std::string path_;
};

/// How long one compiler invocation may run before it is killed.
inline constexpr std::chrono::milliseconds kDefaultCompileTimeout{120000};

/// Process-wide JIT compiler with a content-addressed cache.
class Jit {
public:
  static Jit& instance();

  /// Compiles `source` (if not cached in memory or on disk) and returns the
  /// loaded object. `extraFlags` is appended to the fixed flag set and is
  /// part of the cache key. Throws OclError with the compiler log on
  /// failure, including a compiler killed at the compile timeout; no
  /// temporary files are left behind when compilation fails.
  std::shared_ptr<SharedObject> compile(const std::string& source,
                                        const std::string& extraFlags = "");

  struct Stats {
    std::size_t hits = 0;      // served from the in-memory cache
    std::size_t diskHits = 0;  // loaded from the disk cache
    std::size_t misses = 0;    // not in memory (disk hit or compile)
    std::size_t evictions = 0; // LRU evictions from the memory cache
    std::size_t compiled = 0;  // actual compiler invocations
    std::size_t corruptEvictions = 0;  // unloadable disk entries evicted
  };
  Stats stats() const;

  /// The compiler identity baked into every cache key: the compile command
  /// plus its probed `--version` banner, so upgrading (or switching) the
  /// system compiler invalidates stale objects instead of serving code the
  /// current compiler would not produce. LIFTA_CXX_VERSION overrides the
  /// probe verbatim (tests fake a compiler upgrade with it); a failed probe
  /// yields "unknown". Exposed for tests and diagnostics.
  static std::string compilerIdentity();

  /// Number of distinct sources compiled so far (for tests).
  std::size_t compiledCount() const { return stats().compiled; }

  /// Caps the in-memory LRU (minimum 1); evicts immediately if above.
  void setMemoryCacheCapacity(std::size_t n);

  /// Drops every in-memory entry (loaded objects stay alive while callers
  /// hold their shared_ptr). Does not touch the disk cache or stats.
  void clearMemoryCache();

  /// Sets (and creates) the on-disk cache directory; "" disables.
  void setDiskCacheDir(const std::string& dir);
  std::string diskCacheDir() const;

  /// Sets the deadline for one compiler invocation (default
  /// kDefaultCompileTimeout). For tests, which shorten it to exercise the
  /// kill path without waiting minutes.
  void setCompileTimeout(std::chrono::milliseconds timeout);

  /// Per-process scratch directory compiles run in (for tests).
  const std::string& scratchDir() const { return scratchDir_; }

private:
  Jit();
  std::string scratchDir_;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace lifta::ocl
