// The traced run: a service pass of the workload's seeded jobs (untraced,
// public API), then a replay of the same jobs that calls each layer's
// public function itself under a span, then one-job probes of the other
// two workloads so every per-layer metric is measured in every traced run.
// Per-layer metrics come from the spans (times) and from values read off
// the layer objects (counts, shares); the main workload's samples are used
// when it exercises a layer, the probes' otherwise.
#include <algorithm>
#include <filesystem>
#include <map>

#include "acoustics/simulation.hpp"
#include "analysis/equiv.hpp"
#include "analysis/verify.hpp"
#include "bench.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "common/wav.hpp"
#include "harness/bench_common.hpp"
#include "harness/paper_data.hpp"
#include "lift_acoustics/device_simulation.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/compile_queue.hpp"
#include "ocl/jit.hpp"
#include "ocl/runtime.hpp"
#include "service/device_config.hpp"

namespace rirbench {

namespace fs = std::filesystem;
namespace la = lifta::lift_acoustics;

namespace {

/// Traced-run state: spans plus the non-time per-layer values, both keyed
/// by the workload whose replay produced them.
struct Ctx {
  explicit Ctx(const RunConfig& c) : cfg(c) {}
  const RunConfig& cfg;
  Tracer tracer;
  std::map<std::string, std::vector<double>> values[kNumWorkloads];
  int group = 0;
  int nextJob = 0;

  void setGroup(Workload w) {
    group = static_cast<int>(w);
    tracer.setGroup(group);
  }
  void add(const std::string& key, double v) { values[group][key].push_back(v); }
};

// ---- ref_rir ---------------------------------------------------------------

/// Per-step wall ms of `steps` steps (after one warm-up step) of the job's
/// simulation with a serial stepper or the shared pool.
double stepMs(const sv::RirJobSpec& spec, bool serial, int steps) {
  ac::Simulation<double>::Config cfg;
  cfg.room = spec.room;
  cfg.params = spec.params;
  cfg.model = spec.model;
  cfg.numMaterials = spec.numMaterials;
  cfg.numBranches = spec.numBranches;
  if (serial) {
    cfg.params.threads = 1;
  } else {
    cfg.pool = &lifta::ThreadPool::global();
  }
  ac::Simulation<double> sim(cfg);
  const auto& s = spec.sources.front();
  sim.addImpulse(s.x, s.y, s.z, 1.0);
  sim.run(1);
  const auto t0 = Clock::now();
  sim.run(steps);
  return msSince(t0) / steps;
}

/// Class names as metric-name suffixes ("face+x" is not a legal name).
std::string classKey(int cls) {
  static const char* kKeys[ac::kNumBoundaryClasses] = {
      "face_xm", "face_xp", "face_ym", "face_yp",
      "face_zm", "face_zp", "edge",    "corner"};
  return kKeys[cls];
}

/// Thread scaling on the ref_rir rooms and the Fig 2 per-class split.
void refExtras(Ctx& c) {
  const Sizes& z = c.cfg.sizes;
  const int steps = z.refSteps >= 100 ? 20 : 5;
  const int job = c.nextJob++;
  Scope root(&c.tracer, "probe.ref_scaling", job);
  double t1 = 0.0, t4 = 0.0;
  for (int combo = 0; combo < kRefCombos; ++combo) {
    const sv::RirJobSpec spec = refJob(z, c.cfg.seed, combo);
    {
      Scope s(&c.tracer, "acoustics.run_1t", job);
      t1 += stepMs(spec, /*serial=*/true, steps);
    }
    Scope s(&c.tracer, "acoustics.run_pool", job);
    t4 += stepMs(spec, /*serial=*/false, steps);
  }
  const double threads =
      static_cast<double>(lifta::ThreadPool::global().threadCount());
  c.add("acoustics.step_ms_1t", t1 / kRefCombos);
  c.add("acoustics.step_ms_4t", t4 / kRefCombos);
  c.add("acoustics.scaling_eff_4t", t1 / (threads * t4));

  lifta::harness::BenchOptions opt;
  opt.iters = 5;
  opt.branches = 3;
  Scope cls(&c.tracer, "acoustics.fdmm_class_breakdown", job);
  for (const auto& row : lifta::harness::fdmmClassBreakdown(refRoom(z, 0), opt)) {
    c.add("acoustics.fdmm.class_ms." + classKey(row.cls), row.ms);
  }
}

/// Replays ref_rir job `index` under a root span; returns the span's ms
/// and, with `out`, the traces.
double replayRefJob(Ctx& c, int index, Traces* out) {
  const sv::RirJobSpec spec = refJob(c.cfg.sizes, c.cfg.seed, index);
  const std::string wavDir = c.cfg.outDir + "/replay_wav";
  fs::create_directories(wavDir);
  const int job = c.nextJob++;
  Scope root(&c.tracer, "job", job);
  voxelizeTraced(spec.room, spec.numMaterials, &c.tracer, job);
  ac::StepProfiler prof;
  Traces traces = referenceTraces(spec, &c.tracer, job, &prof);
  for (std::size_t r = 0; r < traces.size(); ++r) {
    Scope w(&c.tracer, "common.wav_write", job);
    lifta::writeWav(lifta::strformat("%s/job%d_rx%zu.wav", wavDir.c_str(),
                                     job, r),
                    lifta::normalize(traces[r]),
                    static_cast<int>(spec.params.sampleRate));
  }
  const double ms = root.end();
  const std::string m =
      spec.model == ac::BoundaryModel::FdMm ? "acoustics.fdmm" : "acoustics.fimm";
  c.add(m + ".volume_ms_per_step", prof.volumeStats().median);
  c.add(m + ".boundary_ms_per_step", prof.boundaryStats().median);
  c.add(m + ".boundary_share", prof.boundaryFraction());
  if (out != nullptr) *out = std::move(traces);
  return ms;
}

// ---- device_tiered ---------------------------------------------------------

struct KernelJob {
  lifta::memory::KernelDef def;
  lifta::memory::Specialization spec;
};

/// The kernels DeviceSimulation builds for this job (volume plus the
/// fissioned or fused boundary launches) with their constant maps: every
/// scalar kernel parameter bound to the value the host binds.
std::vector<KernelJob> deviceKernels(const sv::RirJobSpec& spec,
                                     const ac::RoomGrid& grid) {
  const auto prec = spec.precision == sv::JobPrecision::Float32
                        ? lifta::ir::ScalarKind::Float
                        : lifta::ir::ScalarKind::Double;
  const bool fdmm = spec.model == ac::BoundaryModel::FdMm;
  const int branches = spec.numBranches;
  std::map<std::string, std::int64_t> ints = {
      {"nx", grid.nx},
      {"ny", grid.ny},
      {"nz", grid.nz},
      {"nxny", grid.nx * grid.ny},
      {"cells", static_cast<std::int64_t>(grid.cells())},
      {"numB", static_cast<std::int64_t>(grid.boundaryPoints())},
      {"M", spec.numMaterials}};
  const std::map<std::string, double> reals = {{"l", spec.params.l()},
                                               {"l2", spec.params.l2()}};
  const auto make = [&](lifta::memory::KernelDef def, std::int64_t count) {
    def.real = prec;
    KernelJob k{std::move(def), {}};
    for (const auto& p : k.def.params) {
      if (!p->type->isScalar()) continue;
      if (p->type->scalarKind() == lifta::ir::ScalarKind::Int) {
        if (p->name == "count") {
          k.spec.ints[p->name] = count;
        } else if (ints.count(p->name)) {
          k.spec.ints[p->name] = ints.at(p->name);
        }
      } else if (reals.count(p->name)) {
        k.spec.reals[p->name] = reals.at(p->name);
      }
    }
    return k;
  };
  std::vector<KernelJob> out;
  out.push_back(make(la::liftVolumeKernel(prec), 0));
  const auto launches = ac::planBoundaryLaunches(
      grid.boundaryClasses,
      static_cast<std::int32_t>(std::max(0, spec.params.boundaryFissionMinPoints)));
  const bool fission = !launches.empty() &&
                       !(launches.size() == 1 && launches.front().fixedNbr < 0);
  if (!fission) {
    out.push_back(make(fdmm ? la::liftFdMmKernel(prec, branches)
                            : la::liftFiMmKernel(prec),
                       0));
    return out;
  }
  for (const auto& L : launches) {
    const bool mixed = L.fixedNbr < 0;
    lifta::memory::KernelDef def =
        fdmm ? (mixed ? la::liftFdMmClassMixedKernel(prec, branches)
                      : la::liftFdMmClassKernel(prec, branches, L.fixedNbr))
             : (mixed ? la::liftFiMmClassMixedKernel(prec)
                      : la::liftFiMmClassKernel(prec, L.fixedNbr));
    out.push_back(make(std::move(def), L.count()));
  }
  return out;
}

/// Replays the first `jobs` device jobs; returns each root span's ms and,
/// with `out`, each job's traces.
std::vector<double> replayDevice(Ctx& c, int jobs, std::vector<Traces>* out) {
  namespace ocl = lifta::ocl;
  const Sizes& z = c.cfg.sizes;
  DeviceJobs gen(z, c.cfg.seed);
  ocl::Context ctx;  // one context for every device job, as the service
  auto& jit = ocl::Jit::instance();
  std::vector<double> rootMs;
  const std::size_t compiled0 = jit.stats().compiled;
  for (int i = 0; i < jobs; ++i) {
    const sv::RirJobSpec spec = gen.next();
    const int job = c.nextJob++;

    // The layers the constructor runs, called one by one under their own
    // root so the job root below matches what the service times.
    std::shared_ptr<const ac::RoomGrid> grid;
    std::vector<KernelJob> kernels;
    std::vector<lifta::codegen::GeneratedKernel> generic, special;
    {
      Scope layers(&c.tracer, "layers", job);
      grid = voxelizeTraced(spec.room, spec.numMaterials, &c.tracer, job);
      kernels = deviceKernels(spec, *grid);
      const auto base = lifta::codegen::CodegenOptions::fromEnv();
      lifta::analysis::setVerifyEnabled(false);  // emission alone
      for (const auto& k : kernels) {
        Scope s(&c.tracer, "codegen.generate", job);
        generic.push_back(lifta::codegen::generateKernel(k.def, base));
      }
      for (const auto& k : kernels) {
        auto opts = base;
        opts.spec = k.spec;
        Scope s(&c.tracer, "codegen.generate_spec", job);
        special.push_back(lifta::codegen::generateKernel(k.def, opts));
      }
      lifta::analysis::setVerifyEnabled(true);
      for (const auto& k : kernels) {
        Scope s(&c.tracer, "analysis.bounds_race", job);
        lifta::analysis::verifyKernel(k.def);
      }
      for (const auto& k : kernels) {
        Scope s(&c.tracer, "analysis.translation_validation", job);
        lifta::analysis::verifyTranslation(k.def, k.spec);
      }
      for (const auto& g : generic) {
        Scope s(&c.tracer, "ocl.jit_warm", job);
        jit.compile(g.source, g.buildFlags);
      }
    }

    Scope root(&c.tracer, "job", job);
    Scope ctor(&c.tracer, "lift_acoustics.ctor", job);
    la::DeviceSimulation dev(ctx, sv::deviceConfigFromSpec(spec));
    ctor.end();
    const auto queued = Clock::now();
    for (const auto& s : spec.sources) dev.addImpulse(s.x, s.y, s.z, s.amplitude);
    const std::size_t total = dev.totalKernels();
    std::vector<double> swapWaitMs, genericMs, specializedMs;
    Traces samples(spec.receivers.size());
    for (int step = 0; step < spec.steps; ++step) {
      const std::size_t before = dev.specializedKernels();
      Scope s(&c.tracer, "lift_acoustics.step", job);
      dev.step();
      const double ms = s.end();
      const std::size_t now = dev.specializedKernels();
      if (step > 0 && now == 0) genericMs.push_back(ms);
      if (step > 0 && now == total) specializedMs.push_back(ms);
      s.rename(step == 0        ? "lift_acoustics.first_step"
               : now == 0       ? "lift_acoustics.generic_step"
               : now == total   ? "lift_acoustics.specialized_step"
                                : "lift_acoustics.mixed_step");
      for (std::size_t k = before; k < now; ++k) swapWaitMs.push_back(msSince(queued));
      for (std::size_t r = 0; r < spec.receivers.size(); ++r) {
        const auto& rx = spec.receivers[r];
        Scope sm(&c.tracer, "lift_acoustics.sample", job);
        samples[r].push_back(dev.sample(rx.x, rx.y, rx.z));
      }
    }
    rootMs.push_back(root.end());
    if (out != nullptr) out->push_back(std::move(samples));
    // Kernels still generic at job end waited at least the whole job.
    while (swapWaitMs.size() < total) swapWaitMs.push_back(msSince(queued));
    c.add("ocl.compile_queue_wait_ms", medianOf(swapWaitMs));
    c.add("lift_acoustics.first_swap_step",
          dev.firstSwapStep() >= 0 ? dev.firstSwapStep() : spec.steps);
    c.add("lift_acoustics.swap_ratio",
          static_cast<double>(dev.specializedKernels()) / static_cast<double>(total));
    c.add("lift_acoustics.launches_per_step", static_cast<double>(total));
    c.add("lift_acoustics.boundary_share",
          dev.totalBoundaryMs() / (dev.totalVolumeMs() + dev.totalBoundaryMs()));

    if (i + 1 < jobs) continue;  // ends as a service job does: dtor cancels

    // The last job: compiler invocations per job so far, then the steady
    // state once every kernel is specialized (outside the job). Generic and
    // specialized step times both come from this job, so they compare the
    // same kernels.
    c.add("ocl.compiles_per_job",
          static_cast<double>(jit.stats().compiled - compiled0) / jobs);
    {
      Scope p(&c.tracer, "probe.specialized", job);
      dev.waitForSpecialization();
      for (int step = 0; step < 10 && dev.specializedKernels() == total; ++step) {
        Scope s(&c.tracer, "lift_acoustics.specialized_step", job);
        dev.step();
        specializedMs.push_back(s.end());
      }
    }
    ocl::CompileQueue::instance().drain();
    c.add("lift_acoustics.generic_step_ms", medianOf(genericMs));
    c.add("lift_acoustics.specialized_step_ms", medianOf(specializedMs));

    // Cold compiles of this job's specialized sources under a flag that
    // only changes the cache key, so the cache the job used stays intact.
    Scope p(&c.tracer, "probe.jit_cold", job);
    for (std::size_t k = 0; k < std::min<std::size_t>(2, special.size()); ++k) {
      Scope s(&c.tracer, "ocl.jit_cold", job);
      jit.compile(special[k].source,
                  special[k].buildFlags +
                      lifta::strformat(" -DRIRBENCH_COLD=%d", job));
    }
  }
  return rootMs;
}

// ---- dataset_hybrid --------------------------------------------------------

std::vector<sv::RirJobSpec> expandTraced(Ctx& c, const sv::BatchSpec& spec) {
  Scope e(&c.tracer, "batch.expand", c.nextJob++);
  return sv::expandBatch(spec);
}

/// Replays one hybrid scene under a root span; returns the span's ms and,
/// with `out`, the traces.
double replayScene(Ctx& c, const sv::RirJobSpec& spec, Traces* out) {
  const int id = c.nextJob++;
  Scope scene(&c.tracer, "job", id);
  std::size_t images = 0;
  Traces traces = hybridTraces(spec, &c.tracer, id, nullptr, &images);
  const double ms = scene.end();
  c.add("ism.images_per_scene", static_cast<double>(images));
  if (out != nullptr) *out = std::move(traces);
  return ms;
}

/// The stepper's per-phase profile of a scene's FDTD half, from a separate
/// run: on these tiny grids profiling adds ~15% per step, which the
/// replayed job spans must not carry.
void profileScene(Ctx& c, const sv::RirJobSpec& spec) {
  ac::StepProfiler prof;
  hybridTraces(spec, nullptr, -1, &prof, nullptr);
  c.add("acoustics.fimm.volume_ms_per_step", prof.volumeStats().median);
  c.add("acoustics.fimm.boundary_ms_per_step", prof.boundaryStats().median);
  c.add("acoustics.fimm.boundary_share", prof.boundaryFraction());
}

/// runRirBatch against submit + drain of the same expanded specs on the
/// same service, voxel cache cleared before each; service-layer values
/// come from the submit + drain side.
void batchServicePass(Ctx& c, sv::RirService& svc,
                      const std::vector<sv::BatchSpec>& batches) {
  std::vector<double> wait, run, admit;
  for (const auto& spec : batches) {
    fs::create_directories(spec.outDir);
    ac::clearVoxelCache();
    const auto t0 = Clock::now();
    const sv::BatchResult res = sv::runRirBatch(svc, spec);
    const double batchMs = msSince(t0);
    double bytes = 0.0;
    for (const auto& p : res.shardPaths) bytes += static_cast<double>(fs::file_size(p));
    c.add("batch.shard_bytes", bytes);

    ac::clearVoxelCache();
    const auto t1 = Clock::now();
    std::vector<sv::RirService::JobId> ids;
    for (auto& job : sv::expandBatch(spec)) {
      const auto ts = Clock::now();
      ids.push_back(svc.submit(std::move(job)));
      admit.push_back(msSince(ts));
    }
    for (const auto id : ids) {
      const sv::RirResult r = svc.wait(id);
      wait.push_back(r.queueWaitMs);
      run.push_back(r.runMs);
    }
    c.add("batch.overhead_ms", batchMs - msSince(t1));
  }
  c.add("service.queue_wait_p50_ms", medianOf(wait));
  c.add("service.run_p50_ms", medianOf(run));
  c.add("service.admission_ms", medianOf(admit));
}

/// Service-layer values of closed-loop jobs, as their client saw them.
void addServiceValues(Ctx& c, const std::vector<JobRecord>& jobs) {
  std::vector<double> wait, run, admit;
  for (const auto& j : jobs) {
    wait.push_back(j.result.queueWaitMs);
    run.push_back(j.result.runMs);
    admit.push_back(j.submitMs);
  }
  c.add("service.queue_wait_p50_ms", medianOf(wait));
  c.add("service.run_p50_ms", medianOf(run));
  c.add("service.admission_ms", medianOf(admit));
}

/// Runs a then b, or b then a when `swap`: a service job and its traced
/// replay alternate which goes first, so a drift in host speed over the
/// run hits both sides alike.
template <typename A, typename B>
void inOrder(bool swap, A&& a, B&& b) {
  if (swap) {
    b();
    a();
  } else {
    a();
    b();
  }
}

std::vector<sv::BatchSpec> replayBatches(const RunConfig& cfg, int count,
                                         const std::string& tag) {
  std::vector<sv::BatchSpec> out;
  for (int b = 0; b < count; ++b) {
    out.push_back(hybridBatch(
        cfg.sizes, cfg.seed, b,
        lifta::strformat("%s/%s%03d", cfg.outDir.c_str(), tag.c_str(), b)));
  }
  return out;
}

// ---- metrics ---------------------------------------------------------------

/// Samples of a value or span: the main workload's, else every group's.
class Pick {
public:
  explicit Pick(const Ctx& c) : c_(c) {}

  std::vector<double> values(const std::string& key) const {
    for (const int g : order()) {
      const auto it = c_.values[g].find(key);
      if (it != c_.values[g].end() && !it->second.empty()) return it->second;
    }
    return {};
  }

  std::vector<double> spans(const std::string& name) const {
    for (const int g : order()) {
      std::vector<double> v;
      for (const auto& s : c_.tracer.spans()) {
        if (s.group == g && s.name == name) v.push_back(s.ms());
      }
      if (!v.empty()) return v;
    }
    return {};
  }

private:
  /// The main workload's group, then the probes' in workload order.
  std::vector<int> order() const {
    std::vector<int> out{c_.group};
    for (int g = 0; g < kNumWorkloads; ++g) {
      if (g != c_.group) out.push_back(g);
    }
    return out;
  }

  const Ctx& c_;
};

}  // namespace

RunResult runTraced(const RunConfig& cfg) {
  RunResult out;
  Ctx c(cfg);
  const Workload main = cfg.workload;
  c.setGroup(main);
  std::unique_ptr<sv::RirService> svc;
  setupWorkload(main, cfg, svc, &c.tracer);

  // 1. The workload's seeded jobs through the service, untraced (the
  //    service-layer values, and the latency the trace's own overhead is
  //    measured against), and the traced replay of the same jobs. Where
  //    the cache state allows, the two run in pairs, job by job.
  LoopResult loop;               // the untraced jobs
  std::vector<double> traced;    // replayed jobs' ms, in job order
  std::vector<Traces> replayed;  // and their traces
  const auto addPeakMemory = [&] {
    c.add("service.peak_memory_in_use_mb",
          static_cast<double>(svc->metrics().peakMemoryInUseBytes) / (1 << 20));
  };
  switch (main) {
    case Workload::RefRir: {
      // The fixed rooms stay in the voxel cache and nothing is compiled,
      // so both sides of a pair start from the same state.
      const std::string wavDir = cfg.outDir + "/wav";
      fs::create_directories(wavDir);
      const auto t0 = Clock::now();
      for (int cycle = 0; cycle == 0 || msSince(t0) < cfg.seconds * 0.8e3;
           ++cycle) {
        for (int k = 0; k < kRefCombos; ++k) {
          const int i = cycle * kRefCombos + k;
          sv::RirJobSpec spec = refJob(cfg.sizes, cfg.seed, i);
          spec.wavDir = wavDir;
          inOrder(cycle % 2 == 1,
                  [&] { loop.jobs.push_back(runJob(*svc, std::move(spec))); },
                  [&] {
                    replayed.emplace_back();
                    traced.push_back(replayRefJob(c, i, &replayed.back()));
                  });
        }
      }
      addServiceValues(c, loop.jobs);
      addPeakMemory();
      refExtras(c);
      break;
    }
    case Workload::DeviceTiered: {
      // A job leaves its room's specialized kernels in the JIT's memory
      // cache, so the replay follows the service pass after a new set-up.
      loop = runLoop(main, *svc, cfg, 0.0, 2 * kDeviceCombos);
      addServiceValues(c, loop.jobs);
      addPeakMemory();
      setupWorkload(main, cfg, svc, &c.tracer);
      svc.reset();
      traced = replayDevice(c, 2 * kDeviceCombos, &replayed);
      break;
    }
    case Workload::DatasetHybrid: {
      const auto batches = replayBatches(cfg, 2, "svc");
      batchServicePass(c, *svc, batches);
      addPeakMemory();
      // The replay runs scenes one at a time, so the untraced side does
      // too, on a one-executor service; each side starts with an empty
      // voxel cache.
      sv::RirService::Config one;
      one.workers = 1;
      sv::RirService serial(one);
      const auto jobs = expandTraced(c, batches.front());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        inOrder(j % 2 == 1,
                [&] {
                  ac::clearVoxelCache();
                  loop.jobs.push_back(runJob(serial, jobs[j]));
                },
                [&] {
                  ac::clearVoxelCache();
                  replayed.emplace_back();
                  traced.push_back(replayScene(c, jobs[j], &replayed.back()));
                });
      }
      for (const auto& job : jobs) profileScene(c, job);
      break;
    }
  }
  // Closed-loop jobs come in kinds of different cost; scenes do not.
  const auto typical = [&](const std::vector<double>& ms) {
    return main == Workload::DatasetHybrid ? medianOf(ms)
                                           : medianOf(kindMedians(main, ms));
  };
  const double untracedMs = typical(latencies(loop));
  const double tracedMs = typical(traced);

  // The replay is a direct run of each service job: its traces are the
  // output check.
  long mismatches = 0;
  for (std::size_t j = 0; j < loop.jobs.size(); ++j) {
    const sv::RirResult& r = loop.jobs[j].result;
    if (r.status == sv::JobStatus::Done &&
        (j >= replayed.size() || !bitEqual(r.traces, replayed[j]))) {
      ++mismatches;
    }
  }
  out.notes.push_back(lifta::strformat(
      "output checks: %zu service jobs vs their replay, %ld mismatched",
      loop.jobs.size(), mismatches));

  // 2. One-job probes of the layers this workload bypasses.
  for (int w = 0; w < kNumWorkloads; ++w) {
    const auto probe = static_cast<Workload>(w);
    if (probe == main) continue;
    c.setGroup(probe);
    setupWorkload(probe, cfg, svc, &c.tracer);
    switch (probe) {
      case Workload::RefRir:
        svc.reset();
        replayRefJob(c, 0, nullptr);
        replayRefJob(c, 1, nullptr);
        refExtras(c);
        break;
      case Workload::DeviceTiered:
        svc.reset();
        replayDevice(c, 1, nullptr);
        break;
      case Workload::DatasetHybrid: {
        auto b = replayBatches(cfg, 1, "probe");
        b.front().scenes = std::min(b.front().scenes, 8);
        batchServicePass(c, *svc, b);
        svc.reset();
        for (const auto& job : expandTraced(c, b.front())) {
          replayScene(c, job, nullptr);
        }
        break;
      }
    }
  }
  c.setGroup(main);
  svc.reset();

  // 3. Metrics.
  const Pick pick(c);
  const auto med = [&](const std::vector<double>& v) { return medianOf(v); };
  Metrics& m = out.metrics;
  const auto span = [&](const std::string& metric, const std::string& name) {
    m[metric] = {med(pick.spans(name)), "ms"};
  };
  const auto value = [&](const std::string& metric, const std::string& unit) {
    m[metric] = {med(pick.values(metric)), unit};
  };
  span("acoustics.voxelize_miss_ms", "acoustics.voxelize_miss");
  span("acoustics.voxelize_hit_ms", "acoustics.voxelize_hit");
  {
    // Hit ratio of the replayed jobs' own voxelize calls (set-up excluded).
    double hits = 0.0, lookups = 0.0;
    for (const auto& s : c.tracer.spans()) {
      if (s.group != c.group || s.job < 0) continue;
      if (s.name == "acoustics.voxelize_hit") hits += 1.0, lookups += 1.0;
      if (s.name == "acoustics.voxelize_miss") lookups += 1.0;
    }
    m["acoustics.voxel_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0, "ratio"};
  }
  span("acoustics.sim_setup_ms", "acoustics.sim_setup");
  for (const char* model : {"acoustics.fimm", "acoustics.fdmm"}) {
    value(std::string(model) + ".volume_ms_per_step", "ms");
    value(std::string(model) + ".boundary_ms_per_step", "ms");
    value(std::string(model) + ".boundary_share", "ratio");
  }
  for (int cls = 0; cls < ac::kNumBoundaryClasses; ++cls) {
    value("acoustics.fdmm.class_ms." + classKey(cls), "ms");
  }
  value("acoustics.step_ms_1t", "ms");
  value("acoustics.step_ms_4t", "ms");
  value("acoustics.scaling_eff_4t", "ratio");
  span("codegen.generate_ms", "codegen.generate");
  span("codegen.generate_spec_ms", "codegen.generate_spec");
  span("analysis.bounds_race_ms", "analysis.bounds_race");
  span("analysis.translation_validation_ms", "analysis.translation_validation");
  span("ocl.jit_cold_ms", "ocl.jit_cold");
  span("ocl.jit_warm_ms", "ocl.jit_warm");
  value("ocl.compile_queue_wait_ms", "ms");
  value("ocl.compiles_per_job", "count");
  span("lift_acoustics.ctor_ms", "lift_acoustics.ctor");
  span("lift_acoustics.first_step_ms", "lift_acoustics.first_step");
  value("lift_acoustics.generic_step_ms", "ms");
  value("lift_acoustics.specialized_step_ms", "ms");
  span("lift_acoustics.sample_ms", "lift_acoustics.sample");
  value("lift_acoustics.boundary_share", "ratio");
  value("lift_acoustics.launches_per_step", "count");
  value("lift_acoustics.first_swap_step", "steps");
  value("lift_acoustics.swap_ratio", "ratio");
  value("service.queue_wait_p50_ms", "ms");
  value("service.run_p50_ms", "ms");
  value("service.admission_ms", "ms");
  value("service.peak_memory_in_use_mb", "MiB");
  span("batch.expand_ms", "batch.expand");
  value("batch.shard_bytes", "bytes");
  value("batch.overhead_ms", "ms");
  span("ism.enumerate_ms", "ism.enumerate");
  value("ism.images_per_scene", "count");
  span("ism.render_ms", "ism.render");
  span("ism.stitch_ms", "ism.stitch");
  span("common.wav_write_ms", "common.wav_write");
  m["trace.job_span_ms"] = {tracedMs, "ms"};
  m["trace.overhead_pct"] = {100.0 * (tracedMs / untracedMs - 1.0), "%"};

  // Notes: the Fig 2 anchor next to the paper, and self time per layer.
  namespace hd = lifta::harness;
  const auto t4 = hd::findPaperRow(hd::paperTable4(), "NVIDIA GTX 780", "OpenCL", "602", "");
  const auto t5 = hd::findPaperRow(hd::paperTable5(), "NVIDIA GTX 780", "OpenCL", "602", "box");
  const auto t6 = hd::findPaperRow(hd::paperTable6(), "NVIDIA GTX 780", "OpenCL", "602", "box");
  if (t4 && t5 && t6) {
    out.notes.push_back(lifta::strformat(
        "Fig 2 anchor: boundary share FI-MM %.1f%%, FD-MM %.1f%% (reference "
        "tier, 4 threads); paper GTX 780 602 box double, boundary kernel over "
        "fused-FI + boundary (Tables IV-VI): FI-MM %.1f%%, FD-MM %.1f%%",
        100.0 * m["acoustics.fimm.boundary_share"].value,
        100.0 * m["acoustics.fdmm.boundary_share"].value,
        100.0 * t5->doubleMs / (t4->doubleMs + t5->doubleMs),
        100.0 * t6->doubleMs / (t4->doubleMs + t6->doubleMs)));
  }
  std::map<std::string, std::pair<double, int>> self;
  const auto selfMs = c.tracer.selfMs();
  for (std::size_t i = 0; i < selfMs.size(); ++i) {
    const Span& s = c.tracer.spans()[i];
    if (s.group != c.group) continue;
    auto& e = self[s.name];
    e.first += selfMs[i];
    e.second += 1;
  }
  out.notes.push_back(lifta::strformat(
      "self time by span (%s replay; untraced job %.3f ms, traced %.3f ms):",
      workloadName(main), untracedMs, tracedMs));
  for (const auto& [name, e] : self) {
    out.notes.push_back(lifta::strformat("  %-36s %8d calls %12.3f ms",
                                         name.c_str(), e.second, e.first));
  }
  c.tracer.write(cfg.outDir + "/spans.json");
  out.attempted = attemptedUnits(loop) + static_cast<long>(traced.size());
  out.failed = notDone(loop) + mismatches;
  return out;
}

}  // namespace rirbench
