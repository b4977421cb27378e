#include "service/rir_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "common/wav.hpp"
#include "ism/hybrid.hpp"
#include "lift_acoustics/device_simulation.hpp"
#include "ocl/compile_queue.hpp"
#include "ocl/runtime.hpp"
#include "service/checkpoint.hpp"
#include "service/device_config.hpp"

namespace lifta::service {

using acoustics::BoundaryModel;
using Clock = std::chrono::steady_clock;

const char* fidelityName(Fidelity f) {
  switch (f) {
    case Fidelity::Fdtd: return "fdtd";
    case Fidelity::Ism: return "ism";
    case Fidelity::Hybrid: return "hybrid";
  }
  return "?";
}

const char* jobStatusName(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Done: return "done";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::TimedOut: return "timed-out";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

namespace {

bool isTerminal(JobStatus s) {
  return s != JobStatus::Queued && s != JobStatus::Running;
}

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

struct RirService::Job {
  JobId id = 0;
  std::uint64_t seq = 0;  // submission order, for FIFO within a priority
  RirJobSpec spec;
  std::size_t memBytes = 0;
  std::size_t insideCells = 0;
  std::uint64_t imageRenders = 0;  // ISM images x receivers this job rendered
  // Device tier with Specialized/Tiered kernels: swap outcome at job end.
  bool deviceTiered = false;
  std::uint64_t kernelsSpecialized = 0;
  std::uint64_t kernelsStayedGeneric = 0;
  Clock::time_point submitTime;
  std::atomic<bool> cancelRequested{false};
  JobStatus status = JobStatus::Queued;  // guarded by the service mutex
  RirResult result;
};

namespace {

/// Cap on the ISM reflection order: the image lattice grows cubically, and
/// past ~20 orders the enumeration cost dwarfs any fidelity gain.
constexpr int kMaxIsmOrder = 20;

/// The FDTD half of a hybrid job: a box grid over the same continuous room
/// the image-source engine simulates, at the job's grid spacing.
acoustics::Room hybridGridRoom(const RirJobSpec& spec) {
  return acoustics::boxRoomFromMeters(spec.ism.room.lx, spec.ism.room.ly,
                                      spec.ism.room.lz, spec.params.h());
}

/// Checks shared by the Ism and Hybrid fidelities (continuous domain).
std::string validateIsm(const RirJobSpec& spec) {
  const IsmJobParams& p = spec.ism;
  if (spec.tier == JobTier::Device) {
    return "ISM/hybrid fidelities are reference-tier only";
  }
  if (!spec.checkpointPath.empty() || spec.checkpointEverySteps != 0 ||
      !spec.resumeFrom.empty()) {
    return "checkpoint/resume is FDTD-fidelity only";
  }
  if (p.room.lx <= 0.0 || p.room.ly <= 0.0 || p.room.lz <= 0.0) {
    return "ISM room dimensions must be positive";
  }
  if (p.maxOrder < 0 || p.maxOrder > kMaxIsmOrder) {
    return strformat("ISM maxOrder must be in [0, %d]", kMaxIsmOrder);
  }
  if (p.sincHalfWidth < 1) return "ISM sincHalfWidth must be >= 1";
  for (const double beta : p.wallBeta) {
    if (beta < 0.0) return "wall admittance must be >= 0";
  }
  const auto insideOpen = [&](const ism::Vec3& v) {
    return v.x > 0.0 && v.x < p.room.lx && v.y > 0.0 && v.y < p.room.ly &&
           v.z > 0.0 && v.z < p.room.lz;
  };
  if (!insideOpen(p.source)) {
    return "ISM source must be strictly inside the room";
  }
  if (p.receivers.empty()) return "need at least one receiver";
  for (const auto& rx : p.receivers) {
    if (!insideOpen(rx)) return "ISM receiver must be strictly inside the room";
  }
  if (spec.fidelity == Fidelity::Hybrid) {
    if (!(p.crossoverStart >= 0 && p.crossoverStart < p.crossoverEnd &&
          p.crossoverEnd <= spec.steps)) {
      return "hybrid crossover must satisfy 0 <= start < end <= steps";
    }
    const acoustics::Room grid = hybridGridRoom(spec);
    if (!acoustics::gridIndexableInt32(grid)) {
      return "hybrid FDTD grid has more cells than int32 indices can address";
    }
    if (acoustics::hasIsolatedInsideCell(grid)) {
      return "hybrid FDTD grid is a single cell; the room must span about "
             "1.5 grid spacings on at least one side";
    }
  }
  return {};
}

}  // namespace

void discretizeScene(RirJobSpec& spec) {
  // The grid voxelizer has no per-wall material map, so the grid carries
  // one FI-MM material whose admittance is the mean of the per-wall ones.
  const double h = spec.params.h();
  const IsmJobParams& scene = spec.ism;
  spec.room = hybridGridRoom(spec);
  spec.model = BoundaryModel::FiMm;
  spec.numMaterials = 1;
  spec.numBranches = 0;
  double meanBeta = 0.0;
  for (const double b : scene.wallBeta) meanBeta += b;
  spec.materials = {acoustics::Material{meanBeta / ism::kNumWalls, {}}};
  const auto cell = [&](const ism::Vec3& p) {
    return acoustics::Receiver{
        acoustics::cellForPosition(p.x, h, spec.room.nx),
        acoustics::cellForPosition(p.y, h, spec.room.ny),
        acoustics::cellForPosition(p.z, h, spec.room.nz)};
  };
  const acoustics::Receiver src = cell(scene.source);
  spec.sources = {Source{src.x, src.y, src.z, 1.0}};
  spec.receivers.clear();
  for (const auto& rx : scene.receivers) spec.receivers.push_back(cell(rx));
}

std::string RirService::validate(const RirJobSpec& spec) {
  const auto& room = spec.room;
  if (spec.steps < 1) return "steps must be >= 1";
  if (spec.params.threads < 0) return "params.threads must be >= 0";
  if (spec.params.tileZ < 1) return "params.tileZ must be >= 1";
  if (spec.params.boundaryFissionMinPoints < 0) {
    return "params.boundaryFissionMinPoints must be >= 0";
  }
  if (spec.params.sampleRate <= 0.0) return "sample rate must be positive";
  if (spec.params.c <= 0.0) return "speed of sound must be positive";
  // Before anything derives the grid spacing h = c*Ts/lambda from it.
  if (spec.fidelity != Fidelity::Ism && !spec.params.stable()) {
    return acoustics::kCourantRangeMessage;
  }
  if (spec.fidelity != Fidelity::Fdtd) return validateIsm(spec);
  if (room.nx < 3 || room.ny < 3 || room.nz < 3) {
    return "room must be at least 3 cells in every dimension";
  }
  // The int32-overflow guard of voxelize(), applied before any allocation.
  if (!acoustics::gridIndexableInt32(room)) {
    return "grid has more cells than int32 flat indices can address";
  }
  if (spec.numMaterials < 1) return "need at least one material";
  // An empty list means the default palette; a short one leaves material
  // ids without an entry, which the boundary kernels would read past.
  if (!spec.materials.empty() &&
      static_cast<int>(spec.materials.size()) < spec.numMaterials) {
    return "fewer materials than material ids in use";
  }
  if (spec.model == BoundaryModel::FdMm &&
      (spec.numBranches < 1 || spec.numBranches > acoustics::kMaxBranches)) {
    return "FD-MM needs 1..kMaxBranches ODE branches";
  }
  if (spec.receivers.empty()) return "need at least one receiver";
  for (const auto& r : spec.receivers) {
    if (!room.inside(r.x, r.y, r.z)) {
      return strformat("receiver (%d, %d, %d) is outside the room", r.x, r.y,
                       r.z);
    }
  }
  for (const auto& s : spec.sources) {
    if (!room.inside(s.x, s.y, s.z)) {
      return strformat("source (%d, %d, %d) is outside the room", s.x, s.y,
                       s.z);
    }
  }
  if (spec.checkpointEverySteps < 0) {
    return "checkpointEverySteps must be >= 0";
  }
  if (spec.checkpointEverySteps > 0 && spec.checkpointPath.empty()) {
    return "checkpointEverySteps needs a checkpointPath";
  }
  if (spec.tier == JobTier::Device) {
    if (spec.model != BoundaryModel::FiMm &&
        spec.model != BoundaryModel::FdMm) {
      return "device tier supports the FI-MM and FD-MM models only";
    }
    if (!spec.checkpointPath.empty() || !spec.resumeFrom.empty()) {
      return "checkpoint/resume is reference-tier only";
    }
  }
  return {};
}

namespace {

/// Grid-state footprint of one FDTD simulation (no traces): pressure
/// triple buffer + voxelization arrays + FD-MM branch state, with boundary
/// points upper-bounded from the box closed form.
std::size_t fdtdGridBytes(const acoustics::Room& room, std::size_t scalarBytes,
                          BoundaryModel model, int numBranches, JobTier tier) {
  const std::size_t cells = room.cells();
  // Boundary points are unknown before voxelization; the box closed form
  // times two upper-bounds every supported shape (the L-shape adds two
  // interior walls, everything else has fewer points than the box hull),
  // clamped to the trivial bound of one point per cell.
  const std::size_t boundaryEst =
      std::min(cells, 2 * acoustics::boxBoundaryCount(room.nx, room.ny,
                                                      room.nz));
  std::size_t bytes = 3 * cells * scalarBytes  // prev/curr/next
                      + cells * 4;             // nbrs
  // boundaryIndices + boundaryNbr + material, plus the interior-run plan
  // (runs are bounded by boundary-adjacent rows).
  bytes += boundaryEst * (3 * 4 + 12);
  if (model == BoundaryModel::FdMm) {
    bytes += 3 * static_cast<std::size_t>(numBranches) * boundaryEst *
             scalarBytes;
  }
  if (tier == JobTier::Device) {
    bytes *= 2;  // host mirrors + simulated device buffers
  }
  return bytes;
}

}  // namespace

std::size_t RirService::estimateMemoryBytes(const RirJobSpec& spec) {
  const std::size_t scalarBytes =
      spec.precision == JobPrecision::Float32 ? 4 : 8;
  const std::size_t steps =
      spec.steps > 0 ? static_cast<std::size_t>(spec.steps) : 0;
  const std::size_t receivers = spec.fidelity == Fidelity::Fdtd
                                    ? spec.receivers.size()
                                    : spec.ism.receivers.size();
  // Per-receiver recording traces live for the whole job and are always
  // double (RirResult::traces); long multi-receiver jobs are dominated by
  // this term, not the grid.
  std::size_t bytes = steps * receivers * sizeof(double);
  if (!spec.wavDir.empty()) {
    // WAV export materializes, one receiver at a time, a peak-normalized
    // double copy of the trace plus the 16-bit PCM samples.
    bytes += steps * (sizeof(double) + sizeof(std::int16_t));
  }

  if (spec.fidelity != Fidelity::Fdtd) {
    // Image-source list: exact lattice size for the requested order.
    const int order = std::clamp(spec.ism.maxOrder, 0, kMaxIsmOrder);
    bytes += ism::IsmEngine::countImages(order) * sizeof(ism::ImageSource);
    if (spec.fidelity == Fidelity::Hybrid) {
      const acoustics::Room grid = hybridGridRoom(spec);
      if (!acoustics::gridIndexableInt32(grid)) {
        return std::numeric_limits<std::size_t>::max();
      }
      // The hybrid FDTD half always steps in double with the FI-MM model
      // (one material derived from the wall admittances), and the stitch
      // holds the ISM and FDTD traces alongside the result trace.
      bytes += fdtdGridBytes(grid, sizeof(double), BoundaryModel::FiMm, 0,
                             JobTier::Reference);
      bytes += 2 * steps * receivers * sizeof(double);
    }
    return bytes;
  }

  if (!acoustics::gridIndexableInt32(spec.room)) {
    // Unrepresentable grids can never be admitted.
    return std::numeric_limits<std::size_t>::max();
  }
  return bytes + fdtdGridBytes(spec.room, scalarBytes, spec.model,
                               spec.numBranches, spec.tier);
}

RirService::RirService() : RirService(Config{}) {}

RirService::RirService(Config config) : config_(config) {
  LIFTA_CHECK(config_.workers >= 1, "service needs at least one worker");
  LIFTA_CHECK(config_.memoryBudgetBytes > 0, "memory budget must be > 0");
  const auto voxel = acoustics::voxelCacheStats();
  voxelHitsAtStart_ = voxel.hits;
  voxelMissesAtStart_ = voxel.misses;
  executors_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    executors_.emplace_back([this] { executorLoop(); });
  }
}

RirService::~RirService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& [id, job] : jobs_) {
      if (!isTerminal(job->status)) job->cancelRequested.store(true);
    }
  }
  cvQueue_.notify_all();
  for (auto& t : executors_) t.join();
}

RirService::JobId RirService::submit(RirJobSpec spec) {
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->submitTime = Clock::now();
  const std::string problem = validate(job->spec);
  const std::size_t estimate =
      problem.empty() ? estimateMemoryBytes(job->spec) : 0;

  std::lock_guard<std::mutex> lock(mu_);
  LIFTA_CHECK(!stopping_, "submit on a stopping service");
  job->id = nextId_++;
  job->seq = nextSeq_++;
  ++submitted_;
  jobs_.emplace(job->id, job);

  if (!problem.empty() || estimate > config_.memoryBudgetBytes) {
    job->result.error =
        !problem.empty()
            ? problem
            : strformat("estimated %zu bytes exceeds the %zu-byte budget",
                        estimate, config_.memoryBudgetBytes);
    job->result.memoryBytesEstimated = estimate;
    job->status = job->result.status = JobStatus::Rejected;
    job->result.finishSequence = nextFinishSeq_++;
    ++rejected_;
    cvDone_.notify_all();
    return job->id;
  }

  job->memBytes = estimate;
  job->result.memoryBytesEstimated = estimate;
  // Highest priority first, FIFO within a priority: insert before the
  // first strictly-worse entry.
  const auto pos = std::find_if(
      queue_.begin(), queue_.end(), [&](const std::shared_ptr<Job>& q) {
        return q->spec.priority < job->spec.priority;
      });
  queue_.insert(pos, job);
  cvQueue_.notify_all();
  return job->id;
}

bool RirService::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || isTerminal(it->second->status)) return false;
  it->second->cancelRequested.store(true);
  // A still-queued job finalizes right here — even when every executor is
  // busy — so waiters unblock immediately and the queue keeps draining
  // around it. A running job stops at its next step-granularity check.
  const auto pos = std::find(queue_.begin(), queue_.end(), it->second);
  if (pos != queue_.end()) {
    queue_.erase(pos);
    finalize(*it->second, JobStatus::Cancelled);
  }
  cvQueue_.notify_all();
  return true;
}

JobStatus RirService::status(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  LIFTA_CHECK(it != jobs_.end(), "unknown job id");
  return it->second->status;
}

RirResult RirService::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  LIFTA_CHECK(it != jobs_.end(), "unknown job id");
  auto job = it->second;
  cvDone_.wait(lock, [&] { return isTerminal(job->status); });
  return job->result;
}

void RirService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cvDone_.wait(lock, [&] {
    for (const auto& [id, job] : jobs_) {
      if (!isTerminal(job->status)) return false;
    }
    return true;
  });
}

// Caller holds mu_. Records the terminal state and metrics contributions.
void RirService::finalize(Job& job, JobStatus status) {
  job.status = job.result.status = status;
  job.result.finishSequence = nextFinishSeq_++;
  switch (status) {
    case JobStatus::Done: ++completed_; break;
    case JobStatus::Cancelled: ++cancelled_; break;
    case JobStatus::TimedOut: ++timedOut_; break;
    case JobStatus::Failed: ++failed_; break;
    default: break;
  }
  const std::uint64_t jobCellSteps =
      static_cast<std::uint64_t>(job.insideCells) *
      static_cast<std::uint64_t>(job.result.stepsDone);
  cellSteps_ += jobCellSteps;
  auto& engine = engines_[static_cast<std::size_t>(job.spec.fidelity)];
  if (status == JobStatus::Done) ++engine.jobs;
  engine.cellSteps += jobCellSteps;
  engine.imageRenders += job.imageRenders;
  if (job.deviceTiered) {
    ++deviceJobsTiered_;
    deviceKernelsSpecialized_ += job.kernelsSpecialized;
    deviceKernelsStayedGeneric_ += job.kernelsStayedGeneric;
  }
  totalRunMs_ += job.result.runMs;
  cvDone_.notify_all();
}

void RirService::executorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cvQueue_.wait(lock, [&] {
      if (stopping_ && queue_.empty()) return true;
      if (queue_.empty()) return false;
      if (std::any_of(queue_.begin(), queue_.end(),
                      [](const std::shared_ptr<Job>& q) {
                        return q->cancelRequested.load();
                      })) {
        return true;
      }
      return memoryInUse_ + queue_.front()->memBytes <=
             config_.memoryBudgetBytes;
    });
    if (queue_.empty()) return;  // stopping

    // Sweep cancellations anywhere in the queue so a cancelled job frees
    // its slot immediately and the queue keeps draining around it.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->cancelRequested.load()) {
        finalize(**it, JobStatus::Cancelled);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (queue_.empty() ||
        memoryInUse_ + queue_.front()->memBytes > config_.memoryBudgetBytes) {
      continue;  // re-evaluate the wait predicate
    }

    auto job = queue_.front();
    queue_.erase(queue_.begin());
    job->result.queueWaitMs = msSince(job->submitTime);
    queueWaitSamples_.push_back(job->result.queueWaitMs);
    if (job->spec.timeoutMs > 0.0 &&
        job->result.queueWaitMs >= job->spec.timeoutMs) {
      finalize(*job, JobStatus::TimedOut);  // deadline expired while queued
      continue;
    }
    memoryInUse_ += job->memBytes;
    peakMemoryInUse_ = std::max(peakMemoryInUse_, memoryInUse_);
    job->status = JobStatus::Running;

    lock.unlock();
    runJob(*job);
    lock.lock();

    memoryInUse_ -= job->memBytes;
    finalize(*job, job->result.status);
    cvQueue_.notify_all();  // budget freed
  }
}

// Runs outside the service mutex; leaves the terminal status in
// job.result.status for finalize().
void RirService::runJob(Job& job) {
  try {
    JobStatus end;
    if (job.spec.fidelity == Fidelity::Ism) {
      end = runIsmJob(job);
    } else if (job.spec.fidelity == Fidelity::Hybrid) {
      end = runHybridJob(job);
    } else if (job.spec.tier == JobTier::Device) {
      end = runDeviceJob(job);
    } else if (job.spec.precision == JobPrecision::Float32) {
      end = runReferenceJob<float>(job, job.spec, job.result.traces);
    } else {
      end = runReferenceJob<double>(job, job.spec, job.result.traces);
    }
    if (job.result.runMs > 0.0) {
      job.result.mcellsPerSecond = static_cast<double>(job.insideCells) *
                                   job.result.stepsDone /
                                   (job.result.runMs * 1e3);
    }
    if (end == JobStatus::Done) exportWavs(job);
    job.result.status = end;
  } catch (const std::exception& e) {
    job.result.error = e.what();
    job.result.status = JobStatus::Failed;
  }
}

bool RirService::deadlineExpired(const Job& job) const {
  return job.spec.timeoutMs > 0.0 &&
         msSince(job.submitTime) >= job.spec.timeoutMs;
}

template <typename Sim>
JobStatus RirService::stepFdtd(Job& job, Sim& sim,
                               const std::vector<acoustics::Receiver>& receivers,
                               std::vector<std::vector<double>>& traces) {
  const RirJobSpec& spec = job.spec;
  const int every = spec.checkpointEverySteps;
  // validate() admits checkpoints on reference-tier FDTD jobs only.
  const auto checkpoint = [&] {
    if constexpr (!std::is_same_v<Sim, lift_acoustics::DeviceSimulation>) {
      saveCheckpoint(sim, spec.checkpointPath);
    }
  };
  job.insideCells = sim.grid().insideCells;
  traces.assign(receivers.size(), {});
  JobStatus end = JobStatus::Done;
  Timer runTimer;
  int done = sim.stepsTaken();
  while (done < spec.steps) {
    if (job.cancelRequested.load()) {
      end = JobStatus::Cancelled;
      break;
    }
    if (deadlineExpired(job)) {
      end = JobStatus::TimedOut;
      break;
    }
    // record() reads the cancel flag before every step (the reference tier
    // at task granularity, draining the in-flight graph), so chunking only
    // serves deadline precision and checkpoint cadence. Without either, a
    // single record() call covers the remaining steps and the reference
    // tier's task-graph pipeline runs unbroken.
    int chunk = spec.timeoutMs > 0.0 ? 1 : spec.steps - done;
    if (every > 0) chunk = std::min(chunk, every - done % every);
    // T on the reference tier, double on the device.
    std::vector<std::vector<decltype(sim.sample(0, 0, 0))>> part;
    const int did = sim.record(chunk, receivers, part, &job.cancelRequested);
    for (std::size_t r = 0; r < part.size(); ++r) {
      traces[r].insert(traces[r].end(), part[r].begin(), part[r].end());
    }
    done += did;
    job.result.stepsDone += did;
    if (did < chunk) {
      end = JobStatus::Cancelled;
      break;
    }
    if (every > 0 && done % every == 0) checkpoint();
  }
  if (end == JobStatus::Done && every > 0 && done % every != 0) {
    checkpoint();  // final-step checkpoint
  }
  job.result.runMs = runTimer.milliseconds();
  return end;
}

template <typename T>
JobStatus RirService::runReferenceJob(
    Job& job, const RirJobSpec& spec,
    std::vector<std::vector<double>>& traces) {
  typename acoustics::Simulation<T>::Config cfg;
  cfg.room = spec.room;
  cfg.params = spec.params;
  cfg.model = spec.model;
  cfg.numMaterials = spec.numMaterials;
  cfg.numBranches = spec.numBranches;
  cfg.materials = spec.materials;
  cfg.pool = &ThreadPool::global();
  acoustics::Simulation<T> sim(cfg);

  if (!spec.resumeFrom.empty()) {
    // The original run already injected the sources; restore reproduces
    // the field as of the checkpointed step.
    restoreCheckpoint(sim, spec.resumeFrom);
  } else {
    for (const auto& s : spec.sources) {
      sim.addImpulse(s.x, s.y, s.z, static_cast<T>(s.amplitude));
    }
  }
  if (spec.profile) sim.enableProfiling();
  const JobStatus end = stepFdtd(job, sim, spec.receivers, traces);
  if (spec.profile) job.result.profile = sim.profile();
  return end;
}

lift_acoustics::DeviceSimulation::Config deviceConfigFromSpec(
    const RirJobSpec& spec) {
  lift_acoustics::DeviceSimulation::Config cfg;
  cfg.room = spec.room;
  cfg.params = spec.params;
  cfg.model = spec.model == BoundaryModel::FdMm
                  ? lift_acoustics::DeviceModel::FdMm
                  : lift_acoustics::DeviceModel::FiMm;
  cfg.numMaterials = spec.numMaterials;
  if (spec.model == BoundaryModel::FdMm) cfg.numBranches = spec.numBranches;
  cfg.precision = spec.precision == JobPrecision::Float32
                      ? ir::ScalarKind::Float
                      : ir::ScalarKind::Double;
  cfg.materials = spec.materials;
  cfg.kernelTier = spec.deviceKernelTier;
  return cfg;
}

JobStatus RirService::runDeviceJob(Job& job) {
  const RirJobSpec& spec = job.spec;
  // One JIT context shared by every device job; DeviceSimulation drives it
  // single-threadedly, so device-tier jobs serialize here.
  std::lock_guard<std::mutex> devLock(deviceMu_);
  if (!deviceContext_) deviceContext_ = std::make_unique<ocl::Context>();

  lift_acoustics::DeviceSimulation dev(*deviceContext_,
                                       deviceConfigFromSpec(spec));
  for (const auto& s : spec.sources) {
    dev.addImpulse(s.x, s.y, s.z, s.amplitude);
  }
  const JobStatus end = stepFdtd(job, dev, spec.receivers, job.result.traces);
  if (spec.deviceKernelTier != DeviceKernelTier::Generic) {
    job.deviceTiered = true;
    job.kernelsSpecialized = dev.specializedKernels();
    job.kernelsStayedGeneric = dev.totalKernels() - dev.specializedKernels();
  }
  return end;
}

namespace {

/// Engine config for the ISM side of an Ism or Hybrid job.
ism::IsmConfig ismConfigFromSpec(const RirJobSpec& spec) {
  ism::IsmConfig cfg;
  cfg.room = spec.ism.room;
  cfg.source = spec.ism.source;
  cfg.receivers = spec.ism.receivers;
  cfg.maxOrder = spec.ism.maxOrder;
  cfg.wallR = ism::reflectionsFromAdmittances(spec.ism.wallBeta);
  cfg.c = spec.params.c;
  cfg.sampleRate = spec.params.sampleRate;
  cfg.numSamples = spec.steps;
  cfg.sincHalfWidth = spec.ism.sincHalfWidth;
  return cfg;
}

}  // namespace

JobStatus RirService::runIsmJob(Job& job) {
  const RirJobSpec& spec = job.spec;
  Timer runTimer;
  const ism::IsmEngine engine(ismConfigFromSpec(spec));
  job.result.traces.assign(spec.ism.receivers.size(), {});
  JobStatus end = JobStatus::Done;
  // Cancellation/deadline granularity: one receiver render (the ISM
  // analogue of the FDTD tiers' step granularity).
  for (std::size_t r = 0; r < spec.ism.receivers.size(); ++r) {
    if (job.cancelRequested.load()) {
      end = JobStatus::Cancelled;
      break;
    }
    if (deadlineExpired(job)) {
      end = JobStatus::TimedOut;
      break;
    }
    job.result.traces[r] = engine.renderReceiver(r);
    job.imageRenders += engine.images().size();
  }
  if (end == JobStatus::Done) job.result.stepsDone = spec.steps;
  job.result.runMs = runTimer.milliseconds();
  return end;
}

JobStatus RirService::runHybridJob(Job& job) {
  const RirJobSpec& spec = job.spec;
  Timer runTimer;
  const ism::IsmEngine engine(ismConfigFromSpec(spec));

  // FDTD half: the same continuous scene on a box grid (discretizeScene),
  // stepped in double on the reference tier.
  RirJobSpec fdtdSpec = spec;
  discretizeScene(fdtdSpec);
  std::vector<std::vector<double>> fdtd;
  const JobStatus end = runReferenceJob<double>(job, fdtdSpec, fdtd);

  if (end != JobStatus::Done) {
    // An interrupted hybrid job returns the raw partial FDTD traces; the
    // stitch needs the full trace length to be meaningful.
    job.result.traces = std::move(fdtd);
  } else {
    const ism::CrossoverSpec window{spec.ism.crossoverStart,
                                    spec.ism.crossoverEnd};
    job.result.traces.assign(fdtd.size(), {});
    job.result.spliceEnergyRatio.assign(fdtd.size(), 0.0);
    for (std::size_t r = 0; r < fdtd.size(); ++r) {
      ism::HybridStats stats;
      job.result.traces[r] =
          ism::stitchHybrid(engine.renderReceiver(r), fdtd[r], window,
                            spec.ism.matchEnergyAtSplice, &stats);
      job.result.spliceEnergyRatio[r] = stats.energyRatio;
      job.imageRenders += engine.images().size();
    }
  }
  // Hybrid runMs spans the whole runner (ISM, FDTD and stitch), replacing
  // the stepping-loop time runReferenceJob recorded.
  job.result.runMs = runTimer.milliseconds();
  return end;
}

void RirService::exportWavs(Job& job) {
  if (job.spec.wavDir.empty()) return;
  const int rate = static_cast<int>(job.spec.params.sampleRate);
  for (std::size_t r = 0; r < job.result.traces.size(); ++r) {
    const std::string path =
        strformat("%s/job%llu_rx%zu.wav", job.spec.wavDir.c_str(),
                  static_cast<unsigned long long>(job.id), r);
    writeWav(path, normalize(job.result.traces[r]), rate);
    job.result.wavPaths.push_back(path);
  }
}

ServiceMetrics RirService::metrics() const {
  ServiceMetrics m;
  const auto voxel = acoustics::voxelCacheStats();
  std::lock_guard<std::mutex> lock(mu_);
  m.submitted = submitted_;
  m.completed = completed_;
  m.cancelled = cancelled_;
  m.timedOut = timedOut_;
  m.rejected = rejected_;
  m.failed = failed_;
  m.cellStepsProcessed = cellSteps_;
  m.engines = engines_;
  m.totalRunMs = totalRunMs_;
  m.queueWaitMs = summarize(queueWaitSamples_);
  m.elapsedSeconds = uptime_.seconds();
  m.memoryBudgetBytes = config_.memoryBudgetBytes;
  m.memoryInUseBytes = memoryInUse_;
  m.peakMemoryInUseBytes = peakMemoryInUse_;
  m.voxelCacheHits = voxel.hits - voxelHitsAtStart_;
  m.voxelCacheMisses = voxel.misses - voxelMissesAtStart_;
  m.deviceJobsTiered = deviceJobsTiered_;
  m.deviceKernelsSpecialized = deviceKernelsSpecialized_;
  m.deviceKernelsStayedGeneric = deviceKernelsStayedGeneric_;
  const auto cq = ocl::CompileQueue::instance().stats();
  m.compileSubmitted = cq.submitted;
  m.compileDeduped = cq.deduped;
  m.compileCompiled = cq.compiled;
  m.compileFailed = cq.failed;
  m.compileCancelled = cq.cancelled;
  return m;
}

std::string ServiceMetrics::toJson() const {
  JsonWriter json;
  json.beginObject();
  json.key("jobs")
      .beginObject()
      .field("submitted", submitted)
      .field("completed", completed)
      .field("cancelled", cancelled)
      .field("timed_out", timedOut)
      .field("rejected", rejected)
      .field("failed", failed)
      .endObject();
  json.field("cell_steps_processed", cellStepsProcessed)
      .field("total_run_ms", totalRunMs, 3)
      .field("elapsed_seconds", elapsedSeconds, 3)
      .field("jobs_per_second", jobsPerSecond(), 3)
      .field("aggregate_mcells_per_second", aggregateMcellsPerSecond(), 3);
  json.key("queue_wait_ms")
      .beginObject()
      .field("median", queueWaitMs.median, 3)
      .field("mean", queueWaitMs.mean, 3)
      .field("max", queueWaitMs.max, 3)
      .field("count", static_cast<std::uint64_t>(queueWaitMs.count))
      .endObject();
  json.key("memory")
      .beginObject()
      .field("budget_bytes", static_cast<std::uint64_t>(memoryBudgetBytes))
      .field("in_use_bytes", static_cast<std::uint64_t>(memoryInUseBytes))
      .field("peak_in_use_bytes",
             static_cast<std::uint64_t>(peakMemoryInUseBytes))
      .endObject();
  json.key("engines").beginObject();
  for (int f = 0; f < kNumFidelities; ++f) {
    const EngineCounters& e = engines[static_cast<std::size_t>(f)];
    json.key(fidelityName(static_cast<Fidelity>(f)))
        .beginObject()
        .field("jobs", e.jobs)
        .field("cell_steps", e.cellSteps)
        .field("image_renders", e.imageRenders)
        .endObject();
  }
  json.endObject();
  json.key("voxel_cache")
      .beginObject()
      .field("hits", voxelCacheHits)
      .field("misses", voxelCacheMisses)
      .field("hit_rate", voxelCacheHitRate(), 4)
      .endObject();
  json.key("kernel_tiering")
      .beginObject()
      .field("device_jobs_tiered", deviceJobsTiered)
      .field("kernels_specialized", deviceKernelsSpecialized)
      .field("kernels_stayed_generic", deviceKernelsStayedGeneric)
      .endObject();
  json.key("compile_queue")
      .beginObject()
      .field("submitted", compileSubmitted)
      .field("deduped", compileDeduped)
      .field("compiled", compileCompiled)
      .field("failed", compileFailed)
      .field("cancelled", compileCancelled)
      .endObject();
  json.endObject();
  return json.str();
}

}  // namespace lifta::service
