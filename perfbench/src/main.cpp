// rirbench: end-to-end RIR benchmark program (see ../README.md).
//
//   rirbench --workload ref_rir|device_tiered|dataset_hybrid --seed N
//            --seconds S --trace 0|1 [--tiny 1] [--out DIR] [--git-sha SHA]
//
// Prints "# ..." note lines, a "# stamp {...}" line, and as its last line
// one JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones (tracing off); with --trace 1 they are
// the per-layer ones from a traced replay of the same seeded jobs.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/string_util.hpp"
#include "ocl/jit.hpp"

namespace {

struct Args {
  rirbench::RunConfig cfg;
  std::string gitSha = "unknown";
};

bool parseArgs(int argc, char** argv, Args& a, std::string& err) {
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        if (!rirbench::parseWorkload(v, &a.cfg.workload)) {
          err = "unknown workload " + v;
          return false;
        }
        haveWorkload = true;
      } else if (k == "--seed") {
        a.cfg.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.cfg.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.cfg.trace = v != "0";
      } else if (k == "--tiny") {
        if (v != "0") a.cfg.sizes = rirbench::Sizes::tiny();
      } else if (k == "--out") {
        a.cfg.outDir = v;
      } else if (k == "--git-sha") {
        a.gitSha = v;
      } else {
        err = "unknown flag " + k;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value for " + k + ": " + v;
      return false;
    }
  }
  if (!haveWorkload) err = "--workload is required";
  return haveWorkload;
}

std::string compilerIdentity() {
  std::string id = lifta::ocl::Jit::compilerIdentity();
  for (char& c : id) {
    if (c == '\x1f') c = '|';
  }
  return id;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rirbench;
  Args a;
  std::string err;
  if (!parseArgs(argc, argv, a, err)) {
    std::fprintf(stderr, "rirbench: %s\n", err.c_str());
    return 2;
  }
  RunConfig& cfg = a.cfg;
  if (cfg.outDir.empty()) {
    cfg.outDir = lifta::strformat(".bench_out/run-%d", static_cast<int>(getpid()));
  }
  // Pinning glibc's mmap threshold at its initial 128 KiB turns off the
  // adaptive raise, so every large buffer is mapped and unmapped: peak RSS
  // then tracks the largest live footprint, not how the arenas happened to
  // fragment (which varied run to run by up to 25%).
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  // Compiles stay cold across processes: no on-disk JIT cache.
  lifta::ocl::Jit::instance().setDiskCacheDir("");

  RunResult r;
  try {
    std::filesystem::create_directories(cfg.outDir);
    r = cfg.trace ? runTraced(cfg) : runUntraced(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rirbench: %s\n", e.what());
    return 1;
  }
  for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
  std::printf(
      "# stamp {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %g, \"nproc\": %u, \"compiler\": %s, \"git_sha\": %s, "
      "\"build_type\": %s}\n",
      jsonString(workloadName(cfg.workload)).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
      cfg.seconds, std::thread::hardware_concurrency(),
      jsonString(compilerIdentity()).c_str(), jsonString(a.gitSha).c_str(),
      jsonString(RIRBENCH_BUILD_TYPE).c_str());
  std::printf("%s\n", resultLine(r.failed == 0, r.attempted, r.failed,
                                 r.metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
