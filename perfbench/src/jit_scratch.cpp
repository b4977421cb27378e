// Keeps the JIT's scratch files inside the benchmark's working tree.
//
// ocl::Jit creates its per-process compile directory with
// mkdtemp("/tmp/lifta-jit-XXXXXX"). The benchmark must read and write only
// inside its checkout, so this executable interposes mkdtemp: when
// RIRBENCH_SCRATCH names a directory, templates under /tmp/ are re-rooted
// there (run.py sets it and removes the directory after the run). Every
// other call goes straight to the C library.
#include <dlfcn.h>

#include <cstdlib>
#include <cstring>
#include <string>

extern "C" char* mkdtemp(char* tmpl) noexcept {
  using Fn = char* (*)(char*);
  static const Fn real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "mkdtemp"));
  const char* root = std::getenv("RIRBENCH_SCRATCH");
  if (root == nullptr || root[0] == '\0' ||
      std::strncmp(tmpl, "/tmp/", 5) != 0) {
    return real(tmpl);
  }
  // The caller copies the returned path at once (Jit's constructor, which
  // runs once per process), so one static buffer suffices.
  static thread_local std::string path;
  path = std::string(root) + "/" + (tmpl + 5);
  return real(path.data());
}
