// Shared state of the benchmark program: run configuration, the untraced
// workload loops, the direct engine replays the output checks and the
// traced run both use, and the two entry points main() dispatches to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "acoustics/step_profiler.hpp"
#include "jobs.hpp"
#include "trace.hpp"

namespace rirbench {

struct RunConfig {
  Workload workload = Workload::RefRir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes = Sizes::full();
  /// Per-run working directory (WAVs, shards, spans); created by main().
  std::string outDir;
};

struct RunResult {
  Metrics metrics;
  long attempted = 0;
  /// Jobs that did not finish Done plus output-check mismatches.
  long failed = 0;
  /// Human-readable lines printed before the result ("# ..." prefixed).
  std::vector<std::string> notes;
};

/// Set-ups per untraced run; setup_s is their median. device_tiered's
/// rebuilds every generic kernel (~4 s); the others take ~0.1 s, where
/// one slow set-up weighs more, so they run more.
inline int setupRepeats(Workload w) {
  return w == Workload::DeviceTiered ? 3 : 5;
}

/// Brings a fresh service and the process-wide caches into the state the
/// workload's loop starts from (voxel cache cleared and, for ref_rir,
/// re-filled with the fixed rooms; JIT memory cache cleared and the
/// generic device kernels rebuilt for device_tiered), including one
/// warm-up job so pool spin-up and first touch are not timed. Returns the
/// wall seconds it took.
double setupWorkload(Workload w, const RunConfig& cfg,
                     std::unique_ptr<sv::RirService>& svc, Tracer* tracer);

/// One job of a closed-loop run, as the client saw it.
struct JobRecord {
  sv::RirJobSpec spec;
  sv::RirResult result;
  double latencyMs = 0.0;  // submit() to wait() return
  double submitMs = 0.0;   // submit() alone: validation + admission
};

/// Submits one job and waits for it (one closed-loop client).
JobRecord runJob(sv::RirService& svc, sv::RirJobSpec spec);

/// One runRirBatch call of the dataset loop.
struct BatchRecord {
  sv::BatchSpec spec;
  sv::BatchResult result;
  double wallMs = 0.0;
};

/// One cycle of job kinds (closed loops) or one batch. Throughput is the
/// median over rounds, so a burst of load from outside the process that
/// slows a few rounds does not move it.
struct Round {
  double wallMs = 0.0;
  double rirs = 0.0;            // RIRs finished Done
  std::uint64_t cellSteps = 0;  // inside-cell updates the service ran
};

struct LoopResult {
  std::vector<JobRecord> jobs;
  std::vector<BatchRecord> batches;
  std::vector<Round> rounds;
  double wallSeconds = 0.0;
};

/// The workload's timed loop on `svc`: closed loops of one client for
/// ref_rir and device_tiered (whole combo cycles), back-to-back batches
/// for dataset_hybrid. Stops at the first cycle or batch boundary past
/// `seconds`, or once `maxUnits` jobs (batches) ran when >= 0.
LoopResult runLoop(Workload w, sv::RirService& svc, const RunConfig& cfg,
                   double seconds, int maxUnits);

/// One trace per receiver, widened to double.
using Traces = std::vector<std::vector<double>>;

/// True when both hold the same traces, bit for bit.
bool bitEqual(const Traces& a, const Traces& b);

/// Direct reference-tier run of a grid-domain job: Simulation<T> with the
/// service's configuration, the job's impulses, and one record() over all
/// receivers. Traces widened to double exactly as the service does. With
/// a tracer, the constructor and record() get spans; with `profile`, the
/// stepper's per-phase profile is copied out.
Traces referenceTraces(const sv::RirJobSpec& spec, Tracer* tracer, int job,
                       ac::StepProfiler* profile);

/// Direct replay of a hybrid job through the engines (IsmEngine, the
/// FDTD half via Simulation<double>, stitchHybrid), as the service runs
/// it. Optionally reports the stepper profile and the image count.
Traces hybridTraces(const sv::RirJobSpec& spec, Tracer* tracer, int job,
                    ac::StepProfiler* profile, std::size_t* images);

/// voxelizeCached under a span named acoustics.voxelize_hit or _miss.
std::shared_ptr<const ac::RoomGrid> voxelizeTraced(const ac::Room& room,
                                                   int numMaterials,
                                                   Tracer* tracer, int job);

/// Output checks of the loop against direct engine replays (outside any
/// timed region). Returns the number of mismatches; adds notes.
long checkOutputs(Workload w, const RunConfig& cfg, const LoopResult& loop,
                  std::vector<std::string>& notes);

/// Median of each job kind's samples, given one sample per job in job
/// order (kinds are the combos a closed loop cycles over: room x model for
/// ref_rir, model x precision for device_tiered). Kinds differ in cost by
/// up to 2x, so the median over all jobs falls in the gap between two
/// kinds and jumps with their extremes; the median over kinds of these
/// is steady, and is what job_latency_p50_ms reports.
std::vector<double> kindMedians(Workload w, const std::vector<double>& ms);
/// The loop's submit-to-return latencies in job order.
std::vector<double> latencies(const LoopResult& loop);

/// Jobs that did not finish Done (or scenes, for batches).
long notDone(const LoopResult& loop);
/// Jobs attempted (scenes, for batches).
long attemptedUnits(const LoopResult& loop);

RunResult runUntraced(const RunConfig& cfg);
RunResult runTraced(const RunConfig& cfg);

}  // namespace rirbench
