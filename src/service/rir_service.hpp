// RIR job service: concurrent batched room-impulse-response scheduling.
//
// The user-facing layer a production acoustics deployment drives: a job is
// "simulate this room with these materials, sources and receivers for N
// steps, return the impulse responses" (the batch-RIR workload gpuRIR and
// pyroomacoustics expose). The service runs many jobs concurrently on a
// fixed set of executor threads while every job shares ONE ThreadPool,
// ThreadPool::global(), for its intra-step parallelism (the reference
// stepper's slabs and runs, the device tier's work-groups) — concurrent
// submissions serialize inside the pool, and jobs launched from inside a
// pool task compose through the pool's re-entrancy path — so the machine is
// never oversubscribed no matter how many jobs are in flight.
//
// Scheduling: a priority queue (higher priority first, FIFO within a
// priority) gated by an admission controller with a configurable memory
// budget. A job's footprint is estimated from its grid size and model state
// *before* anything is allocated (reusing the int32 flat-index guard to
// reject unrepresentable grids outright); the head job waits until enough
// budget is free, so total resident simulation state stays bounded.
//
// Lifecycle: Queued -> Running -> {Done, Cancelled, TimedOut, Failed}, or
// Rejected straight from submit(). Cancellation and deadline expiry take
// effect at step granularity mid-run; a cancelled job releases its budget
// immediately and the queue keeps draining. Long jobs can checkpoint every
// K steps (service/checkpoint.hpp) and later resume from the file.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "acoustics/simulation.hpp"
#include "acoustics/step_profiler.hpp"
#include "common/stats.hpp"
#include "ism/ism_engine.hpp"
#include "lift_acoustics/kernel_tier.hpp"

namespace lifta::ocl {
class Context;
}

namespace lifta::service {

/// Which implementation tier steps the job.
enum class JobTier {
  Reference,  // hand-written C++ kernels (Simulation<T>)
  Device,     // LIFT-generated kernels on the simulated OpenCL runtime
};

enum class JobPrecision { Float32, Float64 };

/// Device-tier kernel tiering (DESIGN.md §12).
using DeviceKernelTier = lift_acoustics::KernelTier;

/// Which physical engine produces the impulse response.
enum class Fidelity {
  Fdtd,    // full wave simulation (reference or device tier)
  Ism,     // shoebox image-source early reflections only (host, cheap)
  Hybrid,  // ISM early reflections + FDTD late field, crossover-stitched
};

const char* fidelityName(Fidelity f);
inline constexpr int kNumFidelities = 3;

/// Continuous-domain job description for the ISM and hybrid fidelities.
/// Positions are meters from the room's minimum corner. For Hybrid jobs the
/// FDTD grid, source and receiver cells are derived from these fields at
/// the job's grid spacing (discretizeScene); the grid-domain RirJobSpec
/// fields (room, sources, receivers) are ignored for non-Fdtd fidelities.
struct IsmJobParams {
  ism::ShoeboxRoom room;
  ism::Vec3 source;
  std::vector<ism::Vec3> receivers;
  /// Maximum reflection order of the enumerated image lattice.
  int maxOrder = 6;
  /// Per-wall FI admittances (materials.hpp beta); the engine derives
  /// reflection coefficients, the hybrid FDTD side derives its material.
  std::array<double, ism::kNumWalls> wallBeta{0.2, 0.2, 0.2, 0.2, 0.2, 0.2};
  int sincHalfWidth = 32;
  /// Hybrid only: crossover window in samples (0 <= start < end <= steps).
  int crossoverStart = 0;
  int crossoverEnd = 0;
  /// Hybrid only: scale the FDTD side so both tiers carry equal energy in
  /// the crossover window (RirResult::spliceEnergyRatio reports the ratio
  /// either way).
  bool matchEnergyAtSplice = false;
};

/// An impulsive source: amplitude added to the pressure field at (x,y,z)
/// before the first step.
struct Source {
  int x = 0;
  int y = 0;
  int z = 0;
  double amplitude = 1.0;
};

struct RirJobSpec {
  acoustics::Room room;
  acoustics::SimParams params;
  acoustics::BoundaryModel model = acoustics::BoundaryModel::FiMm;
  int numMaterials = 1;
  int numBranches = 0;  // FD-MM only
  /// Optional explicit materials; defaultMaterials() otherwise.
  std::vector<acoustics::Material> materials;

  /// Total time steps the job should reach (a resumed job only runs the
  /// remainder). Must be >= 1.
  int steps = 0;
  std::vector<Source> sources;
  std::vector<acoustics::Receiver> receivers;  // at least one

  JobPrecision precision = JobPrecision::Float64;
  JobTier tier = JobTier::Reference;
  /// Device tier only: how the job's kernels are compiled and swapped.
  DeviceKernelTier deviceKernelTier = DeviceKernelTier::Generic;
  /// Engine selection; Ism and Hybrid read `ism` instead of the grid-domain
  /// room/sources/receivers and run on the reference tier only.
  Fidelity fidelity = Fidelity::Fdtd;
  IsmJobParams ism;

  /// Higher runs first; FIFO within equal priority.
  int priority = 0;
  /// Deadline measured from submission (queue wait counts); 0 = none.
  /// Checked at step granularity while running.
  double timeoutMs = 0.0;
  /// Collect per-step kernel timings into RirResult::profile.
  bool profile = false;

  /// If non-empty, write one 16-bit PCM WAV per receiver into this
  /// directory (job<id>_rx<i>.wav, peak-normalized).
  std::string wavDir;
  /// Reference tier only: write a checkpoint to `checkpointPath` every
  /// `checkpointEverySteps` steps (and at the final step).
  std::string checkpointPath;
  int checkpointEverySteps = 0;
  /// Reference tier only: restore this checkpoint before stepping; the
  /// job then continues to `steps` total.
  std::string resumeFrom;
};

/// Fills the grid-domain fields of `spec` from `spec.ism`: a box grid over
/// the room at params.h(), the FI-MM model with one material whose
/// admittance is the mean wall admittance, and the source (amplitude 1) and
/// receivers snapped to cells. This is the FDTD half of a hybrid job and
/// the job an Fdtd batch scene expands to.
void discretizeScene(RirJobSpec& spec);

enum class JobStatus {
  Queued,
  Running,
  Done,
  Cancelled,
  TimedOut,
  Rejected,  // failed validation or can never fit the memory budget
  Failed,    // threw while running
};

const char* jobStatusName(JobStatus s);

struct RirResult {
  JobStatus status = JobStatus::Queued;
  std::string error;  // for Rejected / Failed

  /// traces[r][s]: pressure at receiver r after step s (steps run by THIS
  /// job; a resumed job's traces start at its restore point). Partial for
  /// Cancelled/TimedOut jobs.
  std::vector<std::vector<double>> traces;
  std::vector<std::string> wavPaths;

  int stepsDone = 0;  // steps run by this job
  /// Hybrid jobs: per-receiver ISM/FDTD energy ratio inside the crossover
  /// window (HybridStats::energyRatio), the splice-continuity diagnostic.
  std::vector<double> spliceEnergyRatio;
  double queueWaitMs = 0.0;
  double runMs = 0.0;
  std::size_t memoryBytesEstimated = 0;
  /// Inside-cell updates per second while running (0 if never ran).
  double mcellsPerSecond = 0.0;
  /// Monotonic completion order across the service (1 = finished first).
  std::uint64_t finishSequence = 0;
  /// Per-step kernel timings when spec.profile was set.
  acoustics::StepProfiler profile;
};

/// Per-fidelity engine activity: how many jobs each engine finished and
/// how much work it did in its native unit — inside-cell updates for the
/// FDTD stepper, image-source renders (images x receivers) for the ISM
/// engine. Hybrid jobs contribute to both units.
struct EngineCounters {
  std::uint64_t jobs = 0;          // jobs completed (Done)
  std::uint64_t cellSteps = 0;     // FDTD inside-cell updates
  std::uint64_t imageRenders = 0;  // ISM images x receivers rendered
};

/// Aggregate service-level counters; a consistent snapshot of a moment.
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timedOut = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;

  /// Per-engine breakdown, indexed by Fidelity.
  std::array<EngineCounters, kNumFidelities> engines{};

  /// Inside-cell updates summed over every step any job ran.
  std::uint64_t cellStepsProcessed = 0;
  double totalRunMs = 0.0;
  SampleStats queueWaitMs;  // over all jobs that started running
  double elapsedSeconds = 0.0;

  std::size_t memoryBudgetBytes = 0;
  std::size_t memoryInUseBytes = 0;
  std::size_t peakMemoryInUseBytes = 0;

  /// Process-wide voxelization-cache activity since service construction.
  std::uint64_t voxelCacheHits = 0;
  std::uint64_t voxelCacheMisses = 0;

  /// Device-tier kernel tiering (DESIGN.md §12): how many finished device
  /// jobs ran Specialized or Tiered, how many of their kernels ended up on
  /// the constant-specialized variant, and how many stayed generic (build
  /// failed or the job finished before the swap boundary — never an error,
  /// the generic kernel is always correct).
  std::uint64_t deviceJobsTiered = 0;
  std::uint64_t deviceKernelsSpecialized = 0;
  std::uint64_t deviceKernelsStayedGeneric = 0;

  /// Process-wide background compile queue counters (ocl::CompileQueue)
  /// since process start.
  std::uint64_t compileSubmitted = 0;
  std::uint64_t compileDeduped = 0;
  std::uint64_t compileCompiled = 0;
  std::uint64_t compileFailed = 0;
  std::uint64_t compileCancelled = 0;

  double jobsPerSecond() const {
    return elapsedSeconds > 0.0
               ? static_cast<double>(completed) / elapsedSeconds
               : 0.0;
  }
  /// Aggregate sustained throughput over wall time since construction.
  double aggregateMcellsPerSecond() const {
    return elapsedSeconds > 0.0
               ? static_cast<double>(cellStepsProcessed) / 1e6 / elapsedSeconds
               : 0.0;
  }
  double voxelCacheHitRate() const {
    const std::uint64_t lookups = voxelCacheHits + voxelCacheMisses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(voxelCacheHits) /
                              static_cast<double>(lookups);
  }

  /// JSON document (common/json_writer) with every field above plus the
  /// derived rates; what `bench/service_throughput` embeds in
  /// BENCH_service.json.
  std::string toJson() const;
};

class RirService {
public:
  using JobId = std::uint64_t;

  struct Config {
    /// Executor threads = max jobs stepping concurrently.
    int workers = 2;
    /// Admission budget over estimateMemoryBytes of all running jobs.
    std::size_t memoryBudgetBytes = std::size_t{2} << 30;
  };

  explicit RirService(Config config);
  RirService();  // default Config
  /// Requests cancellation of every queued and running job, then joins the
  /// executors. Use drain() first for a graceful shutdown.
  ~RirService();

  RirService(const RirService&) = delete;
  RirService& operator=(const RirService&) = delete;

  /// Validates + enqueues. Invalid or budget-exceeding specs yield a job
  /// in the Rejected state (wait() returns immediately); nothing throws
  /// for a bad spec and nothing is allocated for it.
  JobId submit(RirJobSpec spec);

  /// Requests cancellation. Queued jobs finalize as Cancelled when they
  /// reach the head; running jobs stop at the next step-granularity check.
  /// Returns false if the job is unknown or already terminal.
  bool cancel(JobId id);

  JobStatus status(JobId id) const;

  /// Blocks until the job is terminal and returns its result.
  RirResult wait(JobId id);

  /// Blocks until every submitted job is terminal.
  void drain();

  ServiceMetrics metrics() const;

  const Config& config() const { return config_; }

  /// Conservative pre-allocation footprint estimate: pressure triple
  /// buffer + voxelization arrays + FD-MM branch state (boundary points
  /// upper-bounded from the box closed form). Used by admission; also
  /// useful for capacity planning.
  static std::size_t estimateMemoryBytes(const RirJobSpec& spec);

  /// Empty string when the spec is runnable; otherwise the rejection
  /// reason (bad geometry, int32-unaddressable grid, device-tier limits,
  /// unstable Courant number, ...).
  static std::string validate(const RirJobSpec& spec);

private:
  struct Job;

  void executorLoop();
  void runJob(Job& job);
  // The runners below return the job's end state (Done, Cancelled or
  // TimedOut); runJob finishes every job the same way from there.
  /// Steps a reference-tier Simulation<T> for `spec`, which is job.spec or,
  /// for a hybrid job, its discretized copy; the traces land in `traces`.
  template <typename T>
  JobStatus runReferenceJob(Job& job, const RirJobSpec& spec,
                            std::vector<std::vector<double>>& traces);
  JobStatus runDeviceJob(Job& job);
  JobStatus runIsmJob(Job& job);
  JobStatus runHybridJob(Job& job);
  /// The one FDTD stepping loop, for both tiers: steps `sim` to
  /// job.spec.steps recording `receivers` into `traces`, with cancellation
  /// read before every step, the deadline between chunks (every step when
  /// one is set) and reference-tier checkpoints at their cadence. Sets
  /// job.insideCells, result.stepsDone and result.runMs (the loop's time).
  template <typename Sim>
  JobStatus stepFdtd(Job& job, Sim& sim,
                     const std::vector<acoustics::Receiver>& receivers,
                     std::vector<std::vector<double>>& traces);
  void finalize(Job& job, JobStatus status);
  void exportWavs(Job& job);
  bool deadlineExpired(const Job& job) const;

  Config config_;

  mutable std::mutex mu_;
  std::condition_variable cvQueue_;  // executors: work or budget available
  std::condition_variable cvDone_;   // waiters: some job reached terminal
  std::vector<std::shared_ptr<Job>> queue_;  // sorted: best job first
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  bool stopping_ = false;

  JobId nextId_ = 1;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t nextFinishSeq_ = 1;
  std::size_t memoryInUse_ = 0;
  std::size_t peakMemoryInUse_ = 0;

  // Metrics accumulators (guarded by mu_).
  std::uint64_t submitted_ = 0, completed_ = 0, cancelled_ = 0, timedOut_ = 0,
                rejected_ = 0, failed_ = 0;
  std::uint64_t cellSteps_ = 0;
  std::uint64_t deviceJobsTiered_ = 0, deviceKernelsSpecialized_ = 0,
                deviceKernelsStayedGeneric_ = 0;
  std::array<EngineCounters, kNumFidelities> engines_{};
  double totalRunMs_ = 0.0;
  std::vector<double> queueWaitSamples_;
  std::uint64_t voxelHitsAtStart_ = 0, voxelMissesAtStart_ = 0;
  Timer uptime_;

  /// Device-tier jobs serialize on this mutex (one shared JIT context).
  std::mutex deviceMu_;
  std::unique_ptr<ocl::Context> deviceContext_;  // lazily created

  std::vector<std::thread> executors_;
};

}  // namespace lifta::service
