#include "harness/bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "acoustics/materials.hpp"
#include "acoustics/reference_kernels.hpp"
#include "acoustics/sim_params.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "harness/table.hpp"

namespace lifta::harness {

BenchOptions BenchOptions::fromArgs(int argc, const char* const* argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  BenchOptions opt;
  opt.full = args.getBool("full", opt.full);
  opt.iters = static_cast<int>(args.getInt("iters", opt.iters));
  opt.warmup = static_cast<int>(args.getInt("warmup", opt.warmup));
  opt.localSize =
      static_cast<std::size_t>(args.getInt("local", static_cast<int>(opt.localSize)));
  opt.autotune = args.getBool("autotune", opt.autotune);
  opt.branches = static_cast<int>(args.getInt("branches", opt.branches));
  opt.allPlatforms = args.getBool("all-platforms", opt.allPlatforms);
  return opt;
}

std::vector<SizedRoom> benchRooms(acoustics::RoomShape shape, bool full) {
  using acoustics::Room;
  if (full) {
    // Table II volume dims + halo.
    return {
        {"602", Room{shape, 604, 404, 304}},
        {"336", Room{shape, 338, 338, 338}},
        {"302", Room{shape, 304, 204, 154}},
    };
  }
  // ~1/8 linear scale: preserves the aspect-ratio relationships the paper's
  // §VII-B1 discussion relies on (cuboid with long x vs. uniform cube).
  return {
      {"602", Room{shape, 77, 52, 39}},
      {"336", Room{shape, 44, 44, 44}},
      {"302", Room{shape, 39, 27, 21}},
  };
}

std::vector<ocl::DeviceProfile> benchPlatforms(const BenchOptions& opt) {
  if (opt.allPlatforms) return ocl::paperPlatforms();
  return {ocl::nativeDevice()};
}

double medianKernelMs(const std::function<double()>& launch,
                      const BenchOptions& opt) {
  for (int i = 0; i < opt.warmup; ++i) launch();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(opt.iters));
  for (int i = 0; i < opt.iters; ++i) samples.push_back(launch());
  return median(std::move(samples));
}

double mups(std::size_t updates, double medianMs) {
  if (medianMs <= 0.0) return 0.0;
  return static_cast<double>(updates) / (medianMs * 1e-3) / 1e6;
}

void printBenchBanner(const std::string& title, const BenchOptions& opt) {
  std::printf("=== %s ===\n", title.c_str());
  const std::string local =
      opt.autotune ? "autotuned" : std::to_string(opt.localSize);
  std::printf(
      "substrate: simulated OpenCL runtime on the host CPU (no GPU in this\n"
      "environment); LIFT-generated and hand-written kernels both execute\n"
      "through the same JIT + NDRange executor, preserving the paper's\n"
      "LIFT-vs-handwritten comparison. rooms: %s (use --full for Table II\n"
      "sizes), iters=%d, local=%s\n\n",
      opt.full ? "paper Table II sizes" : "1/8-scale Table II sizes",
      opt.iters, local.c_str());
}

void printStepProfile(const std::string& label,
                      const acoustics::StepProfiler& profiler) {
  std::printf("%s", profiler.report(label).c_str());
}

std::vector<BoundaryClassTiming> fdmmClassBreakdown(
    const acoustics::Room& room, const BenchOptions& opt) {
  const auto grid = acoustics::voxelizeCached(room, 3);
  const auto& cp = grid->boundaryClasses;
  const auto mats = acoustics::defaultMaterials(3, opt.branches);
  const auto beta = acoustics::betaTable(mats);
  const auto fd = acoustics::deriveFdCoeffs(mats, opt.branches,
                                            acoustics::SimParams{}.Ts());
  const std::size_t cells = grid->cells();
  const std::size_t numB = grid->boundaryPoints();
  const std::size_t stateLen = static_cast<std::size_t>(opt.branches) * numB;
  std::vector<double> prev(cells), next(cells), g1(stateLen), v1(stateLen),
      v2(stateLen);
  // Small nonzero values: the update contracts (divides by 1 + cf), so
  // repeated in-place application stays bounded and never denormal.
  for (std::size_t i = 0; i < cells; ++i) {
    prev[i] = 1e-3 * static_cast<double>(i % 7 + 1);
    next[i] = 1e-3 * static_cast<double>(i % 5 + 1);
  }
  for (std::size_t i = 0; i < stateLen; ++i) {
    g1[i] = 1e-4 * static_cast<double>(i % 3 + 1);
    v1[i] = 0.0;
    v2[i] = 1e-4 * static_cast<double>(i % 4 + 1);
  }
  const double l = acoustics::SimParams{}.l();

  std::vector<BoundaryClassTiming> out;
  for (int c = 0; c < acoustics::kNumBoundaryClasses; ++c) {
    const std::int32_t count = cp.classCount(c);
    if (count == 0) continue;
    const std::int64_t j0 = cp.classBegin[static_cast<std::size_t>(c)];
    const std::int64_t j1 = cp.classBegin[static_cast<std::size_t>(c) + 1];
    const int nbr = acoustics::boundaryClassNbr(c);
    // Amortize timer resolution for tiny classes (the 8 corners).
    const int repeats = std::max(1, 4096 / std::max(1, count));
    std::vector<double> samples;
    for (int it = 0; it < std::max(3, opt.iters); ++it) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        if (nbr >= 0) {
          acoustics::refFdMmClassRange(
              cp.cellSorted.data(), cp.matSorted.data(), cp.order.data(), nbr,
              beta.data(), fd.BI.data(), fd.D.data(), fd.DI.data(),
              fd.F.data(), opt.branches, prev.data(), next.data(), g1.data(),
              v1.data(), v2.data(), static_cast<std::int64_t>(numB), j0, j1,
              l);
        } else {
          acoustics::refFdMmMixedRange(
              cp.cellSorted.data(), cp.nbrSorted.data(), cp.matSorted.data(),
              cp.order.data(), beta.data(), fd.BI.data(), fd.D.data(),
              fd.DI.data(), fd.F.data(), opt.branches, prev.data(),
              next.data(), g1.data(), v1.data(), v2.data(),
              static_cast<std::int64_t>(numB), j0, j1, l);
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      samples.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count() /
          repeats);
    }
    out.push_back({c, count, summarize(samples).median});
  }
  return out;
}

std::string renderClassBreakdown(
    const std::vector<BoundaryClassTiming>& rows) {
  double totalMs = 0.0;
  for (const auto& r : rows) totalMs += r.ms;
  Table table({"Class", "nbr", "Points", "ms", "Share"});
  for (const auto& r : rows) {
    const int nbr = acoustics::boundaryClassNbr(r.cls);
    table.addRow(
        {acoustics::boundaryClassName(r.cls),
         nbr >= 0 ? std::to_string(nbr) : "0-3", std::to_string(r.count),
         strformat("%.4f", r.ms),
         strformat("%.1f%%", totalMs > 0.0 ? 100.0 * r.ms / totalMs : 0.0)});
  }
  return table.render();
}

Gate makeGate(const std::string& name, double value, double target,
              const std::string& skipReason) {
  return {name, value, target, value >= target, !skipReason.empty(),
          skipReason};
}

std::string fewCoresSkipReason() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? ""
                 : strformat("hardware_concurrency=%u < 4 at measurement time",
                             hw);
}

void printGates(const std::vector<Gate>& gates) {
  std::printf("perf gates:\n");
  bool anyFailed = false;
  for (const auto& g : gates) {
    if (g.skipped) {
      std::printf("  [skip] %-32s %.2f (target %.2f) — %s\n", g.name.c_str(),
                  g.value, g.target, g.reason.c_str());
    } else {
      std::printf("  [%s] %-32s %.2f (target %.2f)\n",
                  g.met ? "pass" : "FAIL", g.name.c_str(), g.value, g.target);
      anyFailed = anyFailed || !g.met;
    }
  }
  std::printf("%s\n", anyFailed ? "one or more enforced gates FAILED"
                                : "all enforced gates pass");
}

void writeGates(JsonWriter& json, const std::vector<Gate>& gates) {
  json.key("gates").beginArray();
  for (const auto& g : gates) {
    json.beginObject()
        .field("name", g.name)
        .field("value", g.value, 4)
        .field("target", g.target, 2)
        .field("met", g.met)
        .field("skipped", g.skipped)
        .field("reason", g.reason)
        .endObject();
  }
  json.endArray();
}

const char* parityVerdict(double liftOverOpenclRatio) {
  if (liftOverOpenclRatio > 0.8 && liftOverOpenclRatio < 1.25) {
    return "[reproduced]";
  }
  if (liftOverOpenclRatio <= 0.8 &&
      codegen::CodegenOptions::fromEnv().optimize) {
    return "[exceeds paper — codegen optimizer on; set LIFTA_CODEGEN_OPT=0 "
           "for the paper-form comparison]";
  }
  return "[deviates — see EXPERIMENTS.md]";
}

}  // namespace lifta::harness
