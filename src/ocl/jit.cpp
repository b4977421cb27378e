#include "ocl/jit.hpp"

#include <dlfcn.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace lifta::ocl {

namespace fs = std::filesystem;

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string compilerCommand() {
  if (const char* env = std::getenv("LIFTA_CXX")) return env;
  return "c++";
}

/// First line of `cmd --version`, cached per command. The probe runs once
/// per compiler per process; "unknown" (also cached) when the command
/// cannot be run or prints nothing.
std::string probedCompilerVersion(const std::string& cmd) {
  static std::mutex mu;
  static std::map<std::string, std::string> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(cmd);
  if (it != cache.end()) return it->second;

  std::string version = "unknown";
  FILE* p = popen((cmd + " --version 2>/dev/null").c_str(), "r");
  if (p != nullptr) {
    char line[512];
    if (std::fgets(line, sizeof line, p) != nullptr) {
      std::string s(line);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (!s.empty()) version = s;
    }
    pclose(p);
  }
  cache.emplace(cmd, version);
  return version;
}

// No -march=native and contraction off: the JIT'd kernels must execute the
// identical FP operation sequence as the reference build (see header).
const char* kBaseFlags = "-O2 -ffp-contract=off -std=c++17 -shared -fPIC";

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string hashHex(std::uint64_t h) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

/// Runs `cmd` through /bin/sh (LIFTA_CXX may carry its own arguments) in a
/// new process group and waits at most `deadline` for it. Returns the
/// shell's exit status (-1 if a signal ended it), or nullopt when the
/// deadline expired: the whole group (the shell and the compiler it
/// started) is then killed and reaped.
std::optional<int> runCompiler(const std::string& cmd,
                               std::chrono::milliseconds deadline) {
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  const char* argv[] = {"sh", "-c", cmd.c_str(), nullptr};
  pid_t pid = 0;
  const int err = posix_spawn(&pid, "/bin/sh", nullptr, &attr,
                              const_cast<char* const*>(argv), environ);
  posix_spawnattr_destroy(&attr);
  if (err != 0) {
    throw OclError("cannot start the kernel compiler: " +
                   std::string(std::strerror(err)));
  }
  // Poll rather than block so the deadline needs no signals or helper
  // thread; 1 ms is noise next to a cold compile.
  const auto expiry = std::chrono::steady_clock::now() + deadline;
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) {
      throw OclError("waiting for the kernel compiler failed: " +
                     std::string(std::strerror(errno)));
    }
    if (std::chrono::steady_clock::now() >= expiry) {
      kill(-pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Removes the registered paths on destruction unless released — compile
/// failures must not litter the scratch directory.
class TempFiles {
public:
  ~TempFiles() {
    if (released_) return;
    std::error_code ec;
    for (const auto& p : paths_) fs::remove(p, ec);
  }
  void add(const std::string& p) { paths_.push_back(p); }
  void release() { released_ = true; }

private:
  std::vector<std::string> paths_;
  bool released_ = false;
};

}  // namespace

struct Jit::Impl {
  mutable std::mutex mu;

  struct Entry {
    std::shared_ptr<SharedObject> obj;
    std::list<std::uint64_t>::iterator lruPos;
  };
  std::map<std::uint64_t, Entry> cache;
  std::list<std::uint64_t> lru;  // front = most recently used
  std::size_t capacity = 256;

  std::string diskDir;  // "" = disabled
  std::chrono::milliseconds compileTimeout{kDefaultCompileTimeout};
  Stats stats;

  /// Must be called with `mu` held.
  void evictOverCapacity() {
    while (cache.size() > capacity) {
      const std::uint64_t victim = lru.back();
      lru.pop_back();
      cache.erase(victim);
      ++stats.evictions;
    }
  }

  /// Must be called with `mu` held.
  void insert(std::uint64_t key, std::shared_ptr<SharedObject> obj) {
    lru.push_front(key);
    cache[key] = Entry{std::move(obj), lru.begin()};
    evictOverCapacity();
  }
};

SharedObject::~SharedObject() {
  if (handle_ != nullptr) dlclose(handle_);
}

void* SharedObject::symbol(const std::string& name) const {
  dlerror();  // clear
  void* sym = dlsym(handle_, name.c_str());
  if (sym == nullptr) {
    const char* err = dlerror();
    throw OclError("symbol '" + name + "' not found in " + path_ +
                   (err ? std::string(": ") + err : ""));
  }
  return sym;
}

Jit::Jit() : impl_(std::make_shared<Impl>()) {
  char tmpl[] = "/tmp/lifta-jit-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) throw OclError("cannot create JIT scratch directory");
  scratchDir_ = dir;
  if (const char* cap = std::getenv("LIFTA_JIT_MEM_CACHE")) {
    const long n = std::atol(cap);
    if (n >= 1) impl_->capacity = static_cast<std::size_t>(n);
  }
  if (const char* disk = std::getenv("LIFTA_JIT_CACHE_DIR")) {
    if (disk[0] != '\0') setDiskCacheDir(disk);
  }
}

Jit& Jit::instance() {
  static Jit jit;
  return jit;
}

std::string Jit::compilerIdentity() {
  const std::string cmd = compilerCommand();
  std::string version;
  if (const char* env = std::getenv("LIFTA_CXX_VERSION")) {
    version = env;
  } else {
    version = probedCompilerVersion(cmd);
  }
  return cmd + '\x1f' + version;
}

Jit::Stats Jit::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

void Jit::setMemoryCacheCapacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->capacity = n < 1 ? 1 : n;
  impl_->evictOverCapacity();
}

void Jit::clearMemoryCache() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->cache.clear();
  impl_->lru.clear();
}

void Jit::setDiskCacheDir(const std::string& dir) {
  std::string canonical = dir;
  if (!canonical.empty()) {
    std::error_code ec;
    fs::create_directories(canonical, ec);
    if (ec) {
      throw OclError("cannot create JIT disk cache directory '" + canonical +
                     "': " + ec.message());
    }
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->diskDir = std::move(canonical);
}

void Jit::setCompileTimeout(std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->compileTimeout = timeout;
}

std::string Jit::diskCacheDir() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->diskDir;
}

std::shared_ptr<SharedObject> Jit::compile(const std::string& source,
                                           const std::string& extraFlags) {
  // Content address: compiler command *and version*, every flag and the
  // full source all feed the key, so a cached object can never be served
  // for a build that would have produced different code — including after
  // a system compiler upgrade against a persistent disk cache. (Generated
  // sources additionally carry their specialization digest in a header
  // comment, so specialized variants of a kernel hash apart from the
  // generic one by construction.)
  const std::string flags =
      extraFlags.empty() ? std::string(kBaseFlags)
                         : std::string(kBaseFlags) + " " + extraFlags;
  const std::uint64_t h =
      fnv1a(compilerIdentity() + '\x1f' + flags + '\x1f' + source);

  std::string diskDir;
  std::chrono::milliseconds timeout;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->cache.find(h);
    if (it != impl_->cache.end()) {
      ++impl_->stats.hits;
      // Refresh LRU position.
      impl_->lru.erase(it->second.lruPos);
      impl_->lru.push_front(h);
      it->second.lruPos = impl_->lru.begin();
      return it->second.obj;
    }
    ++impl_->stats.misses;
    diskDir = impl_->diskDir;
    timeout = impl_->compileTimeout;
  }

  const std::string hex = hashHex(h);

  // Disk cache: a previously compiled object under the same content hash is
  // loaded directly — the warm path never invokes the compiler.
  if (!diskDir.empty()) {
    const std::string cached = diskDir + "/k_" + hex + ".so";
    std::error_code ec;
    if (fs::exists(cached, ec)) {
      void* handle = dlopen(cached.c_str(), RTLD_NOW | RTLD_LOCAL);
      if (handle != nullptr) {
        auto obj = std::shared_ptr<SharedObject>(
            new SharedObject(handle, cached));
        std::lock_guard<std::mutex> lock(impl_->mu);
        ++impl_->stats.diskHits;
        impl_->insert(h, obj);
        return obj;
      }
      // Corrupt/foreign cache entry (truncated write, bad disk, object from
      // an incompatible loader): evict it and fall through to a cold
      // compile — a damaged cache degrades to cache-off behaviour, it never
      // fails the job.
      const char* err = dlerror();
      std::fprintf(stderr,
                   "lifta: evicting corrupt JIT cache entry %s (%s)\n",
                   cached.c_str(), err != nullptr ? err : "dlopen failed");
      fs::remove(cached, ec);
      std::lock_guard<std::mutex> lock(impl_->mu);
      ++impl_->stats.corruptEvictions;
    }
  }

  const std::string base = scratchDir_ + "/k_" + hex;
  const std::string src = base + ".cpp";
  const std::string so = base + ".so";
  const std::string log = base + ".log";

  TempFiles temps;
  temps.add(src);
  temps.add(so);
  temps.add(log);

  {
    std::ofstream f(src);
    f << source;
    if (!f) throw OclError("cannot write kernel source: " + src);
  }

  const std::string cmd = compilerCommand() + " " + flags + " -x c++ '" + src +
                          "' -o '" + so + "' 2> '" + log + "'";
  const auto rc = runCompiler(cmd, timeout);
  // TempFiles removes src/so/log on unwind: failed builds leave nothing.
  if (!rc) {
    throw OclError("kernel build timed out after " +
                   std::to_string(timeout.count()) +
                   " ms; compiler killed\n--- compiler log ---\n" +
                   readFile(log));
  }
  if (*rc != 0) {
    throw OclError("kernel build failed (exit " + std::to_string(*rc) +
                   ")\n--- source ---\n" + source + "\n--- compiler log ---\n" +
                   readFile(log));
  }

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    throw OclError(std::string("dlopen failed: ") + dlerror());
  }
  temps.release();  // the object (and its source, for debugging) stay live
  auto obj = std::shared_ptr<SharedObject>(new SharedObject(handle, so));

  if (!diskDir.empty()) {
    // Atomic publish: copy to a per-process temp name, then rename into
    // place so concurrent readers never see a partial object.
    const std::string tmp =
        diskDir + "/.k_" + hex + "." + std::to_string(getpid()) + ".tmp";
    const std::string fin = diskDir + "/k_" + hex + ".so";
    std::error_code ec;
    fs::copy_file(so, tmp, fs::copy_options::overwrite_existing, ec);
    if (!ec) fs::rename(tmp, fin, ec);
    if (ec) fs::remove(tmp, ec);  // best-effort: disk cache is an accelerator
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->stats.compiled;
    impl_->insert(h, obj);
  }
  return obj;
}

}  // namespace lifta::ocl
