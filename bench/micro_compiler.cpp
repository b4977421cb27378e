// Micro-benchmarks of the compiler infrastructure itself: symbolic index
// algebra, view resolution, kernel code generation, JIT compilation cold
// vs. warm cache, the optimizer pipeline's effect on generated-kernel
// throughput, and the tiered-execution payoff (constant-specialized step
// time and tier-0 first-step latency, DESIGN.md §12). These quantify the
// "compile-time" costs of the paper's approach (paid once per kernel, not
// per launch) and the run-time payoff of the optimizer. Results are
// written to BENCH_codegen.json and BENCH_specialize.json, each with the
// harness's explicit "gates" list that tools/check_gates.py enforces in CI.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "arith/expr.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "harness/acoustic_bench.hpp"
#include "harness/bench_common.hpp"
#include "lift_acoustics/device_simulation.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/compile_queue.hpp"
#include "ocl/jit.hpp"
#include "ocl/runtime.hpp"
#include "view/view.hpp"

using namespace lifta;
using namespace lifta::harness;

namespace {

template <typename F>
double timeMs(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

template <typename F>
double medianMsOf(int iters, F&& f) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) samples.push_back(timeMs(f));
  return median(std::move(samples));
}

/// All four acoustics kernels generated under `opts`.
std::vector<std::string> generatedSources(const codegen::CodegenOptions& opts) {
  namespace la = lift_acoustics;
  return {
      codegen::generateKernel(la::liftVolumeKernel(ir::ScalarKind::Double),
                              opts)
          .source,
      codegen::generateKernel(la::liftFusedFiKernel(ir::ScalarKind::Double),
                              opts)
          .source,
      codegen::generateKernel(la::liftFiMmKernel(ir::ScalarKind::Double), opts)
          .source,
      codegen::generateKernel(la::liftFdMmKernel(ir::ScalarKind::Double, 3),
                              opts)
          .source,
  };
}

struct KernelRow {
  std::string model;
  std::size_t updates = 0;
  double optMs = 0.0;
  double nooptMs = 0.0;
};

struct SpecRow {
  std::string model;
  double genericStepMs = 0.0;
  double specializedStepMs = 0.0;
  double speedup() const {
    return specializedStepMs > 0 ? genericStepMs / specializedStepMs : 0.0;
  }
};

template <typename MakeBound>
double medianLaunchMs(ocl::Context& ctx, const BenchOptions& opt,
                      MakeBound&& make) {
  auto bound = make();
  ocl::CommandQueue q(ctx);
  return medianKernelMs([&] { return bound.run(q).milliseconds; }, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::fromArgs(argc, argv);
  printBenchBanner("Compiler micro-benchmarks: codegen, JIT cache, optimizer",
                   opt);

  codegen::CodegenOptions optOn;
  codegen::CodegenOptions optOff;
  optOff.optimize = false;

  // --- symbolic/codegen front-end costs ----------------------------------
  const double arithMs = medianMsOf(9, [] {
    for (int i = 0; i < 1000; ++i) {
      const auto idx = arith::Expr::var("idx");
      const auto n = arith::Expr::var("N");
      auto e = idx + arith::Expr(1) + (n - arith::Expr(1) - idx);
      (void)e;
    }
  });
  const double codegenFiMmMs = medianMsOf(9, [&] {
    auto gen = codegen::generateKernel(
        lift_acoustics::liftFiMmKernel(ir::ScalarKind::Float), optOn);
    (void)gen.source;
  });
  const double codegenFdMmMs = medianMsOf(9, [&] {
    auto gen = codegen::generateKernel(
        lift_acoustics::liftFdMmKernel(ir::ScalarKind::Double, 3), optOn);
    (void)gen.source;
  });
  std::printf("arith algebra (1000 Concat offsets): %.3f ms\n", arithMs);
  std::printf("codegen FI-MM kernel: %.3f ms, FD-MM kernel: %.3f ms\n\n",
              codegenFiMmMs, codegenFdMmMs);

  // --- JIT cache: cold compile vs. warm (memory) vs. warm (disk) ---------
  // A nonce makes the sources unique to this run, so "cold" really invokes
  // the compiler even when a disk cache is configured in the environment.
  auto& jit = ocl::Jit::instance();
  const std::string nonce =
      "// micro_compiler nonce " + std::to_string(std::time(nullptr)) + "\n";
  std::vector<std::string> sources;
  for (auto& s : generatedSources(optOn)) sources.push_back(nonce + s);

  const std::string diskDir = jit.scratchDir() + "/diskcache";
  jit.setDiskCacheDir(diskDir);
  const double coldMs = timeMs([&] {
    for (const auto& s : sources) jit.compile(s);
  });
  const double warmMs = timeMs([&] {
    for (const auto& s : sources) jit.compile(s);
  });
  jit.clearMemoryCache();
  const double diskWarmMs = timeMs([&] {
    for (const auto& s : sources) jit.compile(s);
  });
  jit.setDiskCacheDir("");
  const double warmSpeedup = warmMs > 0 ? coldMs / warmMs : 0.0;
  const auto stats = jit.stats();
  std::printf(
      "JIT build of 4 generated kernels: cold %.1f ms, warm (memory) %.3f ms "
      "(%.0fx), warm (disk) %.1f ms\n",
      coldMs, warmMs, warmSpeedup, diskWarmMs);
  std::printf(
      "cache stats: %zu memory hits, %zu disk hits, %zu misses, %zu "
      "compiles\n\n",
      stats.hits, stats.diskHits, stats.misses, stats.compiled);

  // --- optimizer pipeline: kernel throughput opt-on vs. opt-off ----------
  ocl::Context ctx;
  const auto rooms = benchRooms(acoustics::RoomShape::Box, opt.full);
  const auto& room = rooms.front().room;  // the "602" aspect-ratio room
  std::vector<KernelRow> rows;
  {
    AcousticBench<double> bench(ctx, room, 1, 0);
    KernelRow r{"FI", bench.cells(), 0.0, 0.0};
    bench.setCodegenOptions(optOn);
    r.optMs = medianLaunchMs(ctx, opt,
                             [&] { return bench.fusedFi(Impl::Lift, 64); });
    bench.setCodegenOptions(optOff);
    r.nooptMs = medianLaunchMs(ctx, opt,
                               [&] { return bench.fusedFi(Impl::Lift, 64); });
    rows.push_back(r);
  }
  {
    AcousticBench<double> bench(ctx, room, 3, 0);
    KernelRow r{"FI-MM", bench.boundaryPoints(), 0.0, 0.0};
    bench.setCodegenOptions(optOn);
    r.optMs =
        medianLaunchMs(ctx, opt, [&] { return bench.fiMm(Impl::Lift, 64); });
    bench.setCodegenOptions(optOff);
    r.nooptMs =
        medianLaunchMs(ctx, opt, [&] { return bench.fiMm(Impl::Lift, 64); });
    rows.push_back(r);
  }
  {
    AcousticBench<double> bench(ctx, room, 3, opt.branches);
    KernelRow r{"FD-MM", bench.boundaryPoints(), 0.0, 0.0};
    bench.setCodegenOptions(optOn);
    r.optMs =
        medianLaunchMs(ctx, opt, [&] { return bench.fdMm(Impl::Lift, 64); });
    bench.setCodegenOptions(optOff);
    r.nooptMs =
        medianLaunchMs(ctx, opt, [&] { return bench.fdMm(Impl::Lift, 64); });
    rows.push_back(r);
  }

  std::printf("%-6s %12s %12s %12s %12s %8s\n", "model", "opt ms", "noopt ms",
              "opt MU/s", "noopt MU/s", "speedup");
  for (const auto& r : rows) {
    std::printf("%-6s %12.4f %12.4f %12.2f %12.2f %7.2fx\n", r.model.c_str(),
                r.optMs, r.nooptMs, mups(r.updates, r.optMs),
                mups(r.updates, r.nooptMs),
                r.optMs > 0 ? r.nooptMs / r.optMs : 0.0);
  }

  // Quick-mode guards, never skipped: every model's optimized kernel within
  // 5% of the unoptimized one, and the warm JIT cache at least 10x faster
  // than a cold build.
  std::vector<Gate> codegenGates;
  for (const auto& r : rows) {
    std::string key = r.model;  // "FI-MM" -> "fi_mm"
    for (char& c : key) {
      c = c == '-' ? '_'
                   : static_cast<char>(
                         std::tolower(static_cast<unsigned char>(c)));
    }
    codegenGates.push_back(makeGate("opt_speedup_" + key,
                                    r.optMs > 0 ? r.nooptMs / r.optMs : 0.0,
                                    0.95));
  }
  codegenGates.push_back(makeGate("jit_warm_speedup", warmSpeedup, 10.0));
  printGates(codegenGates);

  // --- BENCH_codegen.json -------------------------------------------------
  JsonWriter w;
  w.beginObject();
  w.field("bench", "micro_compiler");
  w.field("full", opt.full);
  w.field("iters", opt.iters);
  w.key("frontend").beginObject();
  w.field("arith_1000_concat_offsets_ms", arithMs);
  w.field("codegen_fimm_ms", codegenFiMmMs);
  w.field("codegen_fdmm_ms", codegenFdMmMs);
  w.endObject();
  w.key("jit_cache").beginObject();
  w.field("kernels_built", static_cast<std::uint64_t>(sources.size()));
  w.field("cold_ms", coldMs);
  w.field("warm_memory_ms", warmMs);
  w.field("warm_disk_ms", diskWarmMs);
  w.field("warm_speedup", warmSpeedup, 2);
  w.endObject();
  w.key("kernels").beginArray();
  for (const auto& r : rows) {
    w.beginObject();
    w.field("model", r.model);
    w.field("updates", static_cast<std::uint64_t>(r.updates));
    w.field("opt_ms", r.optMs);
    w.field("noopt_ms", r.nooptMs);
    w.field("opt_mups", mups(r.updates, r.optMs), 2);
    w.field("noopt_mups", mups(r.updates, r.nooptMs), 2);
    w.field("speedup", r.optMs > 0 ? r.nooptMs / r.optMs : 0.0, 3);
    w.endObject();
  }
  w.endArray();
  writeGates(w, codegenGates);
  w.endObject();
  w.writeFile("BENCH_codegen.json");
  std::printf("\nwrote BENCH_codegen.json\n");

  // --- tiered execution: specialized vs generic step time ----------------
  // Per model, the steady-state payoff of the job-class specialized kernels
  // (KernelTier::Specialized) against the generic baseline, on a mid-size
  // box so step time is kernel-dominated.
  namespace la = lift_acoustics;
  const acoustics::Room specRoom{acoustics::RoomShape::Box, 48, 44, 40};
  const int stepIters = std::max(opt.iters, 9);
  struct SpecModel {
    la::DeviceModel model;
    ir::ScalarKind precision;
    const char* name;
  };
  const SpecModel specModels[] = {
      {la::DeviceModel::FiMm, ir::ScalarKind::Double, "fi-mm/double"},
      {la::DeviceModel::FiMm, ir::ScalarKind::Float, "fi-mm/float"},
      {la::DeviceModel::FdMm, ir::ScalarKind::Double, "fd-mm/double"},
      {la::DeviceModel::FdMm, ir::ScalarKind::Float, "fd-mm/float"},
  };
  std::vector<SpecRow> specRows;
  for (const auto& m : specModels) {
    la::DeviceSimulation::Config cfg;
    cfg.room = specRoom;
    cfg.model = m.model;
    cfg.precision = m.precision;
    cfg.numMaterials = 3;
    SpecRow row{m.name, 0.0, 0.0};
    for (const bool specialized : {false, true}) {
      cfg.kernelTier = specialized ? la::KernelTier::Specialized
                                   : la::KernelTier::Generic;
      la::DeviceSimulation sim(ctx, cfg);
      sim.addImpulse(10, 10, 10, 1.0);
      sim.step();  // upload + first launch outside the timed region
      sim.step();
      const double ms = medianMsOf(stepIters, [&] { sim.step(); });
      (specialized ? row.specializedStepMs : row.genericStepMs) = ms;
    }
    specRows.push_back(row);
  }
  std::printf("\n%-14s %14s %14s %8s\n", "model", "generic ms", "special ms",
              "speedup");
  double bestSpeedup = 0.0;
  for (const auto& r : specRows) {
    std::printf("%-14s %14.4f %14.4f %7.2fx\n", r.model.c_str(),
                r.genericStepMs, r.specializedStepMs, r.speedup());
    bestSpeedup = std::max(bestSpeedup, r.speedup());
  }

  // --- tiered execution: effective first-step latency --------------------
  // A fresh job class per measurement (specialized kernels are keyed by
  // class, not room: here a material count no run above used) so every
  // specialized source is cold. Generic kernel source is class- and
  // shape-independent and warm by now — exactly the service's first job
  // of a new class, where only the specialized build is new work. Tier-0
  // must reach its first step without paying it.
  la::DeviceSimulation::Config lat;
  lat.model = la::DeviceModel::FiMm;
  lat.precision = ir::ScalarKind::Double;
  lat.numMaterials = 4;
  lat.room = acoustics::Room{acoustics::RoomShape::Box, 49, 45, 41};
  lat.kernelTier = la::KernelTier::Specialized;
  const double coldSpecFirstStepMs = timeMs([&] {
    la::DeviceSimulation sim(ctx, lat);
    sim.step();
  });
  lat.numMaterials = 5;
  lat.room = acoustics::Room{acoustics::RoomShape::Box, 50, 46, 42};
  lat.kernelTier = la::KernelTier::Tiered;
  const double tier0FirstStepMs = timeMs([&] {
    la::DeviceSimulation sim(ctx, lat);
    sim.step();
  });
  ocl::CompileQueue::instance().drain();  // don't leak builds past the bench
  const double firstStepSpeedup =
      tier0FirstStepMs > 0 ? coldSpecFirstStepMs / tier0FirstStepMs : 0.0;
  std::printf(
      "first step: cold specialized %.1f ms, tier-0 (tiered) %.1f ms "
      "(%.1fx)\n",
      coldSpecFirstStepMs, tier0FirstStepMs, firstStepSpeedup);

  // --- BENCH_specialize.json ----------------------------------------------
  // Timing-ratio gates are too noisy to enforce on small loaded runners
  // (same skip policy as BENCH_refstep.json).
  const std::string scaleSkip = fewCoresSkipReason();
  const std::vector<Gate> gates = {
      makeGate("specialized_step_speedup_best", bestSpeedup, 1.15, scaleSkip),
      makeGate("tiered_first_step_speedup", firstStepSpeedup, 5.0, scaleSkip)};
  printGates(gates);

  JsonWriter sw;
  sw.beginObject();
  sw.field("bench", "micro_compiler/specialize");
  sw.field("iters", stepIters);
  sw.key("room")
      .beginObject()
      .field("shape", "box")
      .field("nx", specRoom.nx)
      .field("ny", specRoom.ny)
      .field("nz", specRoom.nz)
      .endObject();
  sw.key("models").beginArray();
  for (const auto& r : specRows) {
    sw.beginObject()
        .field("model", r.model)
        .field("generic_step_ms", r.genericStepMs, 4)
        .field("specialized_step_ms", r.specializedStepMs, 4)
        .field("speedup", r.speedup(), 3)
        .endObject();
  }
  sw.endArray();
  sw.key("first_step").beginObject();
  sw.field("cold_specialized_ms", coldSpecFirstStepMs, 2);
  sw.field("tier0_tiered_ms", tier0FirstStepMs, 2);
  sw.field("speedup", firstStepSpeedup, 2);
  sw.endObject();
  writeGates(sw, gates);
  sw.endObject();
  sw.writeFile("BENCH_specialize.json");
  std::printf("wrote BENCH_specialize.json\n");
  return 0;
}
