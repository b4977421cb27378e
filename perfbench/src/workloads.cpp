// Set-up, the untraced workload loops, the direct engine replays and the
// output checks. Everything here drives the program through its public
// API (service::RirService, runRirBatch, Simulation<T>, IsmEngine, ...).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "acoustics/simulation.hpp"
#include "bench.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "common/wav.hpp"
#include "ism/hybrid.hpp"
#include "ocl/compile_queue.hpp"
#include "ocl/jit.hpp"

namespace rirbench {

namespace fs = std::filesystem;

namespace {

/// Seed offset for warm-up jobs, so they never coincide with a timed job.
constexpr std::uint64_t kWarmSeed = 0x5eed'0f'5e7'0bULL;

/// The job's source and receivers moved into a room no device job uses,
/// with the generic kernel tier: set-up builds every generic kernel the
/// tiered jobs start on without touching their rooms' specializations.
sv::RirJobSpec deviceWarmJob(const Sizes& z, std::uint64_t seed, int combo) {
  DeviceJobs gen(z, seed ^ kWarmSeed);
  sv::RirJobSpec spec;
  for (int i = 0; i <= combo; ++i) spec = gen.next();
  spec.room = deviceWarmRoom(z);
  spec.deviceKernelTier = sv::DeviceKernelTier::Generic;
  spec.steps = 2;
  return spec;
}

template <typename T>
std::vector<std::vector<double>> referenceTracesT(const sv::RirJobSpec& spec,
                                                  Tracer* tracer, int job,
                                                  ac::StepProfiler* profile) {
  typename ac::Simulation<T>::Config cfg;
  cfg.room = spec.room;
  cfg.params = spec.params;
  cfg.model = spec.model;
  cfg.numMaterials = spec.numMaterials;
  cfg.numBranches = spec.numBranches;
  cfg.materials = spec.materials;
  cfg.pool = &lifta::ThreadPool::global();  // the service's stepping pool
  Scope setup(tracer, "acoustics.sim_setup", job);
  ac::Simulation<T> sim(cfg);
  setup.end();
  for (const auto& s : spec.sources) {
    sim.addImpulse(s.x, s.y, s.z, static_cast<T>(s.amplitude));
  }
  if (profile != nullptr) sim.enableProfiling();
  Scope step(tracer, "acoustics.step", job);
  const auto traces = sim.record(spec.steps, spec.receivers);
  step.end();
  if (profile != nullptr) *profile = sim.profile();
  std::vector<std::vector<double>> out;
  for (const auto& t : traces) out.emplace_back(t.begin(), t.end());
  return out;
}

std::vector<char> readFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

bool bitEqual(const Traces& a, const Traces& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    if (!a[r].empty() &&
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

JobRecord runJob(sv::RirService& svc, sv::RirJobSpec spec) {
  JobRecord rec;
  rec.spec = spec;
  const auto t0 = Clock::now();
  const auto id = svc.submit(std::move(spec));
  rec.submitMs = msSince(t0);
  rec.result = svc.wait(id);
  rec.latencyMs = msSince(t0);
  return rec;
}

std::vector<double> kindMedians(Workload w, const std::vector<double>& ms) {
  const std::size_t cycle = w == Workload::RefRir ? kRefCombos : kDeviceCombos;
  std::vector<double> out;
  for (std::size_t kind = 0; kind < cycle && kind < ms.size(); ++kind) {
    std::vector<double> v;
    for (std::size_t i = kind; i < ms.size(); i += cycle) v.push_back(ms[i]);
    out.push_back(medianOf(v));
  }
  return out;
}

std::vector<double> latencies(const LoopResult& loop) {
  std::vector<double> out;
  for (const auto& j : loop.jobs) out.push_back(j.latencyMs);
  return out;
}

std::shared_ptr<const ac::RoomGrid> voxelizeTraced(const ac::Room& room,
                                                   int numMaterials,
                                                   Tracer* tracer, int job) {
  const auto missesBefore = ac::voxelCacheStats().misses;
  Scope s(tracer, "acoustics.voxelize", job);
  auto grid = ac::voxelizeCached(room, numMaterials);
  s.rename(ac::voxelCacheStats().misses > missesBefore
               ? "acoustics.voxelize_miss"
               : "acoustics.voxelize_hit");
  return grid;
}

double setupWorkload(Workload w, const RunConfig& cfg,
                     std::unique_ptr<sv::RirService>& svc, Tracer* tracer) {
  const auto t0 = Clock::now();
  svc.reset();
  ac::clearVoxelCache();
  const Sizes& z = cfg.sizes;
  sv::RirService::Config sc;
  // Closed loops have one job in flight; the dataset batch runs nproc.
  sc.workers = w == Workload::DatasetHybrid ? 4 : 1;
  switch (w) {
    case Workload::RefRir: {
      svc = std::make_unique<sv::RirService>(sc);
      for (int combo = 0; combo < kRefCombos; combo += 2) {
        voxelizeTraced(refRoom(z, combo), 3, tracer, -1);
      }
      sv::RirJobSpec warm = refJob(z, cfg.seed ^ kWarmSeed, 1);
      warm.steps = std::min(warm.steps, 40);
      runJob(*svc, warm);
      break;
    }
    case Workload::DeviceTiered: {
      lifta::ocl::CompileQueue::instance().drain();
      lifta::ocl::Jit::instance().clearMemoryCache();
      svc = std::make_unique<sv::RirService>(sc);
      for (int combo = 0; combo < kDeviceCombos; ++combo) {
        runJob(*svc, deviceWarmJob(z, cfg.seed, combo));
      }
      break;
    }
    case Workload::DatasetHybrid: {
      svc = std::make_unique<sv::RirService>(sc);
      const std::string dir = cfg.outDir + "/warm";
      fs::create_directories(dir);
      sv::BatchSpec warm = hybridBatch(z, cfg.seed ^ kWarmSeed, 0, dir);
      warm.scenes = std::min(warm.scenes, 4);
      sv::runRirBatch(*svc, warm);
      break;
    }
  }
  return msSince(t0) / 1e3;
}

LoopResult runLoop(Workload w, sv::RirService& svc, const RunConfig& cfg,
                   double seconds, int maxUnits) {
  LoopResult out;
  const Sizes& z = cfg.sizes;
  const auto t0 = Clock::now();
  auto roundStart = t0;
  std::uint64_t roundCells = svc.metrics().cellStepsProcessed;
  double roundRirs = 0.0;
  // True at a round boundary past the budget. A round is one cycle of job
  // kinds (closed loops) or one batch; it also closes the current round.
  const auto done = [&](int units, int cycle) {
    if (units == 0 || units % cycle != 0) return false;
    const std::uint64_t cells = svc.metrics().cellStepsProcessed;
    out.rounds.push_back({msSince(roundStart), roundRirs, cells - roundCells});
    roundStart = Clock::now();
    roundCells = cells;
    roundRirs = 0.0;
    if (maxUnits >= 0) return units >= maxUnits;
    return msSince(t0) >= seconds * 1e3;
  };
  const auto countRirs = [&](const JobRecord& j) {
    if (j.result.status == sv::JobStatus::Done) {
      roundRirs += static_cast<double>(j.result.traces.size());
    }
  };
  switch (w) {
    case Workload::RefRir: {
      const std::string wavDir = cfg.outDir + "/wav";
      fs::create_directories(wavDir);
      for (int i = 0; !done(i, kRefCombos); ++i) {
        sv::RirJobSpec spec = refJob(z, cfg.seed, i);
        spec.wavDir = wavDir;
        out.jobs.push_back(runJob(svc, std::move(spec)));
        countRirs(out.jobs.back());
      }
      break;
    }
    case Workload::DeviceTiered: {
      DeviceJobs gen(z, cfg.seed);
      while (!done(gen.issued(), kDeviceCombos)) {
        out.jobs.push_back(runJob(svc, gen.next()));
        countRirs(out.jobs.back());
      }
      break;
    }
    case Workload::DatasetHybrid: {
      for (int b = 0; !done(b, 1); ++b) {
        const std::string dir = lifta::strformat("%s/batch%03d",
                                                 cfg.outDir.c_str(), b);
        fs::create_directories(dir);
        BatchRecord rec;
        rec.spec = hybridBatch(z, cfg.seed, b, dir);
        const auto tb = Clock::now();
        rec.result = sv::runRirBatch(svc, rec.spec);
        rec.wallMs = msSince(tb);
        roundRirs += rec.result.rirsWritten;
        out.batches.push_back(std::move(rec));
      }
      break;
    }
  }
  out.wallSeconds = msSince(t0) / 1e3;
  return out;
}

Traces referenceTraces(const sv::RirJobSpec& spec, Tracer* tracer, int job,
                       ac::StepProfiler* profile) {
  return spec.precision == sv::JobPrecision::Float32
             ? referenceTracesT<float>(spec, tracer, job, profile)
             : referenceTracesT<double>(spec, tracer, job, profile);
}

Traces hybridTraces(const sv::RirJobSpec& spec, Tracer* tracer, int job,
                    ac::StepProfiler* profile, std::size_t* images) {
  namespace ism = lifta::ism;
  ism::IsmConfig icfg;
  icfg.room = spec.ism.room;
  icfg.source = spec.ism.source;
  icfg.receivers = spec.ism.receivers;
  icfg.maxOrder = spec.ism.maxOrder;
  icfg.wallR = ism::reflectionsFromAdmittances(spec.ism.wallBeta);
  icfg.c = spec.params.c;
  icfg.sampleRate = spec.params.sampleRate;
  icfg.numSamples = spec.steps;
  icfg.sincHalfWidth = spec.ism.sincHalfWidth;
  Scope enumerate(tracer, "ism.enumerate", job);
  const ism::IsmEngine engine(icfg);
  enumerate.end();
  if (images != nullptr) *images = engine.images().size();

  // The FDTD half as the service builds it: a box grid over the same
  // room, FI-MM with one mean-admittance material.
  const double h = spec.params.h();
  ac::Simulation<double>::Config cfg;
  cfg.room = ac::boxRoomFromMeters(spec.ism.room.lx, spec.ism.room.ly,
                                   spec.ism.room.lz, h);
  cfg.params = spec.params;
  cfg.model = ac::BoundaryModel::FiMm;
  cfg.numMaterials = 1;
  double meanBeta = 0.0;
  for (const double b : spec.ism.wallBeta) meanBeta += b;
  cfg.materials = {ac::Material{meanBeta / ism::kNumWalls, {}}};
  cfg.pool = &lifta::ThreadPool::global();
  voxelizeTraced(cfg.room, 1, tracer, job);
  Scope setup(tracer, "acoustics.sim_setup", job);
  ac::Simulation<double> sim(cfg);
  setup.end();
  sim.addImpulse(ac::cellForPosition(spec.ism.source.x, h, cfg.room.nx),
                 ac::cellForPosition(spec.ism.source.y, h, cfg.room.ny),
                 ac::cellForPosition(spec.ism.source.z, h, cfg.room.nz), 1.0);
  std::vector<ac::Receiver> receivers;
  for (const auto& rx : spec.ism.receivers) {
    receivers.push_back({ac::cellForPosition(rx.x, h, cfg.room.nx),
                         ac::cellForPosition(rx.y, h, cfg.room.ny),
                         ac::cellForPosition(rx.z, h, cfg.room.nz)});
  }
  if (profile != nullptr) sim.enableProfiling();
  Scope step(tracer, "acoustics.step", job);
  const auto fdtd = sim.record(spec.steps, receivers);
  step.end();
  if (profile != nullptr) *profile = sim.profile();

  const ism::CrossoverSpec window{spec.ism.crossoverStart,
                                  spec.ism.crossoverEnd};
  std::vector<std::vector<double>> out;
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    Scope render(tracer, "ism.render", job);
    const auto early = engine.renderReceiver(r);
    render.end();
    Scope stitch(tracer, "ism.stitch", job);
    out.push_back(ism::stitchHybrid(early, fdtd[r], window,
                                    spec.ism.matchEnergyAtSplice));
  }
  return out;
}

long checkOutputs(Workload w, const RunConfig& cfg, const LoopResult& loop,
                  std::vector<std::string>& notes) {
  long mismatches = 0;
  long checked = 0;
  lifta::Rng rng(mixSeed(cfg.seed, 99, 0));
  const auto mismatch = [&](const std::string& what) {
    ++mismatches;
    if (mismatches <= 5) notes.push_back("output mismatch: " + what);
  };
  switch (w) {
    case Workload::RefRir: {
      // Every job's WAVs; one seeded job per room x model for the traces.
      for (const auto& j : loop.jobs) {
        if (j.result.status != sv::JobStatus::Done) continue;
        bool ok = j.result.wavPaths.size() == j.spec.receivers.size();
        for (const auto& path : j.result.wavPaths) {
          ok = ok && fs::exists(path) &&
               lifta::readWav(path).samples.size() ==
                   static_cast<std::size_t>(j.spec.steps);
        }
        if (!ok) mismatch("ref_rir WAV export");
      }
      const int cycles = static_cast<int>(loop.jobs.size()) / kRefCombos;
      for (int combo = 0; combo < kRefCombos && cycles > 0; ++combo) {
        const auto& j = loop.jobs[static_cast<std::size_t>(
            combo + kRefCombos * rng.uniformInt(0, cycles - 1))];
        if (j.result.status != sv::JobStatus::Done) continue;
        ++checked;
        if (!bitEqual(j.result.traces,
                      referenceTraces(j.spec, nullptr, -1, nullptr))) {
          mismatch("ref_rir traces vs Simulation::record");
        }
      }
      break;
    }
    case Workload::DeviceTiered: {
      // LIFT = hand-written: every device trace against the reference tier.
      for (const auto& j : loop.jobs) {
        if (j.result.status != sv::JobStatus::Done) continue;
        ++checked;
        if (!bitEqual(j.result.traces,
                      referenceTraces(j.spec, nullptr, -1, nullptr))) {
          mismatch("device_tiered traces vs reference tier");
        }
      }
      break;
    }
    case Workload::DatasetHybrid: {
      // A seeded sample of scenes against a direct engine replay, compared
      // byte for byte with the float32 shards.
      const int samples = std::min<int>(4, static_cast<int>(loop.batches.size()) *
                                               cfg.sizes.batchScenes);
      for (int s = 0; s < samples; ++s) {
        const auto& b = loop.batches[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(loop.batches.size()) - 1))];
        const int scene =
            static_cast<int>(rng.uniformInt(0, b.spec.scenes - 1));
        if (b.result.scenesWritten != b.spec.scenes) continue;  // notDone
        ++checked;
        const auto specs = sv::expandBatch(b.spec);
        const auto traces =
            hybridTraces(specs[static_cast<std::size_t>(scene)], nullptr, -1,
                         nullptr, nullptr);
        std::vector<char> want;
        for (const auto& t : traces) {
          for (const double v : t) {
            const float f = static_cast<float>(v);
            char bytes[4];
            std::memcpy(bytes, &f, 4);  // little-endian host, as the shards
            want.insert(want.end(), bytes, bytes + 4);
          }
        }
        const std::size_t perScene = want.size();
        const int shard = scene / b.spec.shardSize;
        const std::size_t offset =
            static_cast<std::size_t>(scene % b.spec.shardSize) * perScene;
        const auto got = readFileBytes(
            b.result.shardPaths.at(static_cast<std::size_t>(shard)));
        if (got.size() < offset + perScene ||
            std::memcmp(got.data() + offset, want.data(), perScene) != 0) {
          mismatch(lifta::strformat("dataset_hybrid shard scene %d", scene));
        }
      }
      break;
    }
  }
  notes.push_back(lifta::strformat("output checks: %ld compared, %ld mismatched",
                                   checked, mismatches));
  return mismatches;
}

long notDone(const LoopResult& loop) {
  long n = 0;
  for (const auto& j : loop.jobs) n += j.result.status != sv::JobStatus::Done;
  for (const auto& b : loop.batches) {
    for (const auto s : b.result.sceneStatus) n += s != sv::JobStatus::Done;
  }
  return n;
}

long attemptedUnits(const LoopResult& loop) {
  long n = static_cast<long>(loop.jobs.size());
  for (const auto& b : loop.batches) n += b.spec.scenes;
  return n;
}

RunResult runUntraced(const RunConfig& cfg) {
  RunResult out;
  std::unique_ptr<sv::RirService> svc;
  std::vector<double> setups;
  for (int i = 0; i < setupRepeats(cfg.workload); ++i) {
    setups.push_back(setupWorkload(cfg.workload, cfg, svc, nullptr));
  }
  const LoopResult loop = runLoop(cfg.workload, *svc, cfg, cfg.seconds, -1);
  const double rss = peakRssMb();
  svc.reset();

  std::vector<double> latency, rirsPerS, mcellsPerS;
  for (const auto& r : loop.rounds) {
    rirsPerS.push_back(r.rirs / (r.wallMs / 1e3));
    mcellsPerS.push_back(static_cast<double>(r.cellSteps) / 1e3 / r.wallMs);
  }
  double p50 = 0.0;
  if (cfg.workload == Workload::DatasetHybrid) {
    for (const auto& b : loop.batches) latency.push_back(b.wallMs);
    p50 = medianOf(latency);
  } else {
    latency = latencies(loop);
    p50 = medianOf(kindMedians(cfg.workload, latency));
  }

  out.metrics["rirs_per_s"] = {medianOf(rirsPerS), "1/s"};
  out.metrics["job_latency_p50_ms"] = {p50, "ms"};
  out.metrics["mcells_per_s"] = {medianOf(mcellsPerS), "Mcells/s"};
  out.metrics["setup_s"] = {medianOf(setups), "s"};
  out.metrics["peak_rss_mb"] = {rss, "MiB"};

  const long mismatches = checkOutputs(cfg.workload, cfg, loop, out.notes);
  out.attempted = attemptedUnits(loop);
  out.failed = notDone(loop) + mismatches;
  for (const auto& j : loop.jobs) {
    if (j.result.status != sv::JobStatus::Done && out.notes.size() < 8) {
      out.notes.push_back(lifta::strformat(
          "job %s: %s", sv::jobStatusName(j.result.status),
          j.result.error.c_str()));
    }
  }
  out.notes.push_back(lifta::strformat(
      "%zu latency samples over %.2f s; error_rate %.4f",
      latency.size(), loop.wallSeconds,
      static_cast<double>(out.failed) / static_cast<double>(out.attempted)));
  {
    std::string s = "mcells_per_s by round:";
    for (const double v : mcellsPerS) s += lifta::strformat(" %.0f", v);
    out.notes.push_back(s);
  }
  if (!loop.jobs.empty()) {
    std::string s = "median latency ms by job kind:";
    for (const double v : kindMedians(cfg.workload, latency)) {
      s += lifta::strformat(" %.1f", v);
    }
    out.notes.push_back(s);
  }
  // The guide's tail percentile needs ten samples beyond it.
  if (latency.size() >= 100) {
    out.notes.push_back(lifta::strformat("job_latency_p90_ms %.3f",
                                         percentileOf(latency, 90)));
  }
  std::string s = "setup_s samples:";
  for (const double v : setups) s += lifta::strformat(" %.4f", v);
  out.notes.push_back(s);
  return out;
}

}  // namespace rirbench
