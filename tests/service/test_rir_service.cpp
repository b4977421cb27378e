// The RIR job service end-to-end: scheduling (priority, FIFO, budget
// admission), lifecycle transitions (cancel, deadline, reject), result
// fidelity (bit-identical to a direct Simulation run, both tiers), resume
// from checkpoints, WAV export and service metrics.
#include "service/rir_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "acoustics/geometry.hpp"
#include "common/error.hpp"
#include "ism/ism_engine.hpp"

using namespace lifta;
using namespace lifta::acoustics;
using namespace lifta::service;

namespace {

RirJobSpec smallSpec(BoundaryModel model = BoundaryModel::FiMm,
                     int steps = 40) {
  RirJobSpec spec;
  spec.room = Room{RoomShape::Dome, 16, 14, 12};
  spec.model = model;
  const bool mm = model == BoundaryModel::FiMm || model == BoundaryModel::FdMm;
  spec.numMaterials = mm ? 2 : 1;
  spec.numBranches = model == BoundaryModel::FdMm ? 3 : 0;
  spec.steps = steps;
  spec.sources.push_back({8, 7, 6, 1.0});
  spec.receivers.push_back({5, 5, 5});
  spec.receivers.push_back({10, 8, 6});
  return spec;
}

void waitUntilRunning(RirService& svc, RirService::JobId id) {
  while (svc.status(id) == JobStatus::Queued) {
    std::this_thread::yield();
  }
}

TEST(RirService, JobMatchesDirectSimulationBitwise) {
  const auto spec = smallSpec();
  RirService svc;
  const auto id = svc.submit(spec);
  const RirResult r = svc.wait(id);
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  EXPECT_EQ(r.stepsDone, spec.steps);
  EXPECT_GT(r.mcellsPerSecond, 0.0);
  EXPECT_GT(r.memoryBytesEstimated, 0u);
  EXPECT_GE(r.finishSequence, 1u);

  Simulation<double>::Config cfg;
  cfg.room = spec.room;
  cfg.model = spec.model;
  cfg.numMaterials = spec.numMaterials;
  Simulation<double> direct(cfg);
  direct.addImpulse(8, 7, 6, 1.0);
  const auto expected = direct.record(spec.steps, spec.receivers);

  ASSERT_EQ(r.traces.size(), expected.size());
  for (std::size_t rx = 0; rx < expected.size(); ++rx) {
    ASSERT_EQ(r.traces[rx].size(), expected[rx].size());
    for (std::size_t s = 0; s < expected[rx].size(); ++s) {
      ASSERT_EQ(r.traces[rx][s], expected[rx][s])
          << "receiver " << rx << " step " << s;
    }
  }
}

TEST(RirService, Float32JobRunsAndRecords) {
  auto spec = smallSpec(BoundaryModel::FdMm, 25);
  spec.precision = JobPrecision::Float32;
  spec.profile = true;
  RirService svc;
  const RirResult r = svc.wait(svc.submit(spec));
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  EXPECT_EQ(r.stepsDone, 25);
  ASSERT_EQ(r.traces.size(), 2u);
  EXPECT_EQ(r.traces[0].size(), 25u);
  // Profiling was requested: one sample per step ran.
  EXPECT_EQ(r.profile.steps(), 25u);
}

TEST(RirService, PriorityOrderHighJumpsQueue) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);

  // Occupy the single executor long enough that both later jobs queue.
  auto blocker = smallSpec(BoundaryModel::FiMm, 2'000'000);
  const auto idBlocker = svc.submit(blocker);
  waitUntilRunning(svc, idBlocker);

  auto low = smallSpec(BoundaryModel::FiMm, 10);
  low.priority = 0;
  auto high = smallSpec(BoundaryModel::FiMm, 10);
  high.priority = 5;
  const auto idLow = svc.submit(low);
  const auto idHigh = svc.submit(high);  // submitted last, runs first
  EXPECT_TRUE(svc.cancel(idBlocker));

  const RirResult rLow = svc.wait(idLow);
  const RirResult rHigh = svc.wait(idHigh);
  ASSERT_EQ(rLow.status, JobStatus::Done) << rLow.error;
  ASSERT_EQ(rHigh.status, JobStatus::Done) << rHigh.error;
  EXPECT_LT(rHigh.finishSequence, rLow.finishSequence);
}

TEST(RirService, FifoWithinEqualPriority) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  const auto idBlocker = svc.submit(smallSpec(BoundaryModel::FiMm, 2'000'000));
  waitUntilRunning(svc, idBlocker);
  const auto idFirst = svc.submit(smallSpec(BoundaryModel::FusedFi, 10));
  const auto idSecond = svc.submit(smallSpec(BoundaryModel::FusedFi, 10));
  svc.cancel(idBlocker);
  EXPECT_LT(svc.wait(idFirst).finishSequence,
            svc.wait(idSecond).finishSequence);
}

TEST(RirService, CancelQueuedJobFreesSlotAndQueueDrains) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  const auto idBlocker = svc.submit(smallSpec(BoundaryModel::FiMm, 2'000'000));
  waitUntilRunning(svc, idBlocker);
  const auto idDoomed = svc.submit(smallSpec(BoundaryModel::FiMm, 10));
  const auto idAfter = svc.submit(smallSpec(BoundaryModel::FusedFi, 10));

  EXPECT_TRUE(svc.cancel(idDoomed));
  const RirResult rDoomed = svc.wait(idDoomed);
  EXPECT_EQ(rDoomed.status, JobStatus::Cancelled);
  EXPECT_EQ(rDoomed.stepsDone, 0);  // never started

  EXPECT_TRUE(svc.cancel(idBlocker));
  // The queue keeps draining around the cancellations.
  const RirResult rAfter = svc.wait(idAfter);
  EXPECT_EQ(rAfter.status, JobStatus::Done) << rAfter.error;
  svc.drain();

  const auto m = svc.metrics();
  EXPECT_EQ(m.cancelled, 2u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.memoryInUseBytes, 0u);  // every admitted job released budget

  // Cancelling a terminal or unknown job is a no-op.
  EXPECT_FALSE(svc.cancel(idDoomed));
  EXPECT_FALSE(svc.cancel(9999));
}

TEST(RirService, CancelRunningJobStopsAtStepGranularity) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  const auto id = svc.submit(smallSpec(BoundaryModel::FiMm, 2'000'000));
  waitUntilRunning(svc, id);
  EXPECT_TRUE(svc.cancel(id));
  const RirResult r = svc.wait(id);
  EXPECT_EQ(r.status, JobStatus::Cancelled);
  EXPECT_LT(r.stepsDone, 2'000'000);
  // The partial trace covers exactly the steps that ran.
  ASSERT_EQ(r.traces.size(), 2u);
  EXPECT_EQ(r.traces[0].size(), static_cast<std::size_t>(r.stepsDone));
}

TEST(RirService, DeadlineExpiresMidRun) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  auto spec = smallSpec(BoundaryModel::FiMm, 2'000'000);
  spec.timeoutMs = 5.0;
  const RirResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::TimedOut);
  EXPECT_LT(r.stepsDone, 2'000'000);
  EXPECT_EQ(svc.metrics().timedOut, 1u);
}

TEST(RirService, DeadlineExpiresWhileQueued) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  const auto idBlocker = svc.submit(smallSpec(BoundaryModel::FiMm, 2'000'000));
  waitUntilRunning(svc, idBlocker);
  auto late = smallSpec(BoundaryModel::FiMm, 10);
  late.timeoutMs = 0.001;  // will have expired by the time it dequeues
  const auto idLate = svc.submit(late);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.cancel(idBlocker);
  const RirResult r = svc.wait(idLate);
  EXPECT_EQ(r.status, JobStatus::TimedOut);
  EXPECT_EQ(r.stepsDone, 0);
}

// The device tier steps through the same loop: a running job stops at its
// next step once cancelled and keeps exactly the samples of the steps it
// ran.
TEST(RirService, CancelRunningDeviceJobKeepsStepsDoneSamples) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  auto spec = smallSpec(BoundaryModel::FiMm, 500'000);
  spec.tier = JobTier::Device;
  const auto id = svc.submit(spec);
  waitUntilRunning(svc, id);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(svc.cancel(id));
  const RirResult r = svc.wait(id);
  EXPECT_EQ(r.status, JobStatus::Cancelled);
  EXPECT_LT(r.stepsDone, spec.steps);
  ASSERT_EQ(r.traces.size(), spec.receivers.size());
  for (const auto& trace : r.traces) {
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(r.stepsDone));
  }
}

TEST(RirService, DeviceJobDeadlineExpiresMidRun) {
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  auto spec = smallSpec(BoundaryModel::FiMm, 500'000);
  spec.tier = JobTier::Device;
  spec.timeoutMs = 5.0;
  const RirResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::TimedOut);
  EXPECT_LT(r.stepsDone, spec.steps);
  for (const auto& trace : r.traces) {
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(r.stepsDone));
  }
  EXPECT_EQ(svc.metrics().timedOut, 1u);
}

TEST(RirService, MemoryBudgetBoundsConcurrentAdmission) {
  const auto spec = smallSpec(BoundaryModel::FdMm, 30);
  const std::size_t perJob = RirService::estimateMemoryBytes(spec);
  ASSERT_GT(perJob, 0u);

  RirService::Config cfg;
  cfg.workers = 2;
  cfg.memoryBudgetBytes = perJob + perJob / 2;  // fits one job, not two
  RirService svc(cfg);
  std::vector<RirService::JobId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(svc.submit(spec));
  for (const auto id : ids) {
    const RirResult r = svc.wait(id);
    EXPECT_EQ(r.status, JobStatus::Done) << r.error;
    EXPECT_EQ(r.memoryBytesEstimated, perJob);
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, 3u);
  EXPECT_LE(m.peakMemoryInUseBytes, cfg.memoryBudgetBytes);
  EXPECT_GE(m.peakMemoryInUseBytes, perJob);
  EXPECT_EQ(m.memoryInUseBytes, 0u);
}

TEST(RirService, RejectsJobOverIntMaxCellsWithoutAllocating) {
  auto spec = smallSpec();
  spec.room = Room{RoomShape::Box, 1300, 1300, 1300};  // > 2^31 - 1 cells
  spec.receivers = {{5, 5, 5}};
  spec.sources = {{6, 6, 6, 1.0}};
  RirService svc;
  const auto id = svc.submit(spec);
  EXPECT_EQ(svc.status(id), JobStatus::Rejected);  // immediate, no wait
  const RirResult r = svc.wait(id);
  EXPECT_EQ(r.status, JobStatus::Rejected);
  EXPECT_NE(r.error.find("int32"), std::string::npos) << r.error;
  EXPECT_EQ(svc.metrics().rejected, 1u);
}

TEST(RirService, RejectsJobThatCanNeverFitTheBudget) {
  RirService::Config cfg;
  cfg.memoryBudgetBytes = 1024;  // smaller than any real job
  RirService svc(cfg);
  const RirResult r = svc.wait(svc.submit(smallSpec()));
  EXPECT_EQ(r.status, JobStatus::Rejected);
  EXPECT_NE(r.error.find("budget"), std::string::npos) << r.error;
}

TEST(RirService, RejectsInvalidSpecs) {
  RirService svc;
  auto noReceivers = smallSpec();
  noReceivers.receivers.clear();
  EXPECT_EQ(svc.wait(svc.submit(noReceivers)).status, JobStatus::Rejected);

  auto outsideSource = smallSpec();
  outsideSource.sources = {{0, 0, 0, 1.0}};  // halo cell
  EXPECT_EQ(svc.wait(svc.submit(outsideSource)).status, JobStatus::Rejected);

  auto badSteps = smallSpec();
  badSteps.steps = 0;
  EXPECT_EQ(svc.wait(svc.submit(badSteps)).status, JobStatus::Rejected);

  auto deviceCheckpoint = smallSpec();
  deviceCheckpoint.tier = JobTier::Device;
  deviceCheckpoint.checkpointPath = "x.ck";
  deviceCheckpoint.checkpointEverySteps = 5;
  EXPECT_EQ(svc.wait(svc.submit(deviceCheckpoint)).status,
            JobStatus::Rejected);

  EXPECT_EQ(svc.metrics().rejected, 4u);
  EXPECT_EQ(svc.metrics().submitted, 4u);
}

// A material list shorter than the material ids in use is refused at
// admission on both tiers: the device tier's boundary kernel would read
// beta past the list's end instead of failing.
TEST(RirService, RejectsMaterialListShorterThanMaterialIds) {
  RirService svc;
  for (const auto tier : {JobTier::Reference, JobTier::Device}) {
    auto spec = smallSpec(BoundaryModel::FiMm, 10);
    spec.tier = tier;
    spec.numMaterials = 3;
    spec.materials = {Material{0.1, {}}};
    const RirResult r = svc.wait(svc.submit(spec));
    EXPECT_EQ(r.status, JobStatus::Rejected) << r.error;
  }
}

// A 3x3x3 room passes admission (every side has 3 cells), but its one
// inside cell has no inside neighbour, so voxelize refuses it and the job
// fails with that message on both tiers.
TEST(RirService, RoomWithIsolatedInsideCellFailsOnBothTiers) {
  RirService svc;
  for (const auto tier : {JobTier::Reference, JobTier::Device}) {
    auto spec = smallSpec(BoundaryModel::FiMm, 10);
    spec.tier = tier;
    spec.room = Room{RoomShape::Box, 3, 3, 3};
    spec.sources = {{1, 1, 1, 1.0}};
    spec.receivers = {{1, 1, 1}};
    const RirResult r = svc.wait(svc.submit(spec));
    EXPECT_EQ(r.status, JobStatus::Failed) << r.error;
    EXPECT_NE(r.error.find("no inside neighbour"), std::string::npos)
        << r.error;
  }
}

TEST(RirService, CheckpointThenResumeMatchesUninterruptedRun) {
  const std::string ck = std::string(::testing::TempDir()) + "svc_resume.ck";
  RirService svc;

  auto firstHalf = smallSpec(BoundaryModel::FdMm, 30);
  firstHalf.checkpointPath = ck;
  firstHalf.checkpointEverySteps = 30;
  const RirResult r1 = svc.wait(svc.submit(firstHalf));
  ASSERT_EQ(r1.status, JobStatus::Done) << r1.error;

  auto secondHalf = smallSpec(BoundaryModel::FdMm, 60);
  secondHalf.resumeFrom = ck;
  const RirResult r2 = svc.wait(svc.submit(secondHalf));
  ASSERT_EQ(r2.status, JobStatus::Done) << r2.error;
  EXPECT_EQ(r2.stepsDone, 30);  // only the remainder ran

  // Uninterrupted 60-step reference run over the same spec.
  Simulation<double>::Config cfg;
  cfg.room = firstHalf.room;
  cfg.model = firstHalf.model;
  cfg.numMaterials = firstHalf.numMaterials;
  cfg.numBranches = firstHalf.numBranches;
  Simulation<double> direct(cfg);
  direct.addImpulse(8, 7, 6, 1.0);
  const auto full = direct.record(60, firstHalf.receivers);

  for (std::size_t rx = 0; rx < full.size(); ++rx) {
    ASSERT_EQ(r1.traces[rx].size(), 30u);
    ASSERT_EQ(r2.traces[rx].size(), 30u);
    for (int s = 0; s < 30; ++s) {
      ASSERT_EQ(r1.traces[rx][static_cast<std::size_t>(s)],
                full[rx][static_cast<std::size_t>(s)])
          << "first half, receiver " << rx << " step " << s;
      ASSERT_EQ(r2.traces[rx][static_cast<std::size_t>(s)],
                full[rx][static_cast<std::size_t>(s + 30)])
          << "resumed half, receiver " << rx << " step " << s;
    }
  }
  std::remove(ck.c_str());
}

TEST(RirService, ExportsOneWavPerReceiver) {
  auto spec = smallSpec(BoundaryModel::FiMm, 20);
  spec.wavDir = ::testing::TempDir();
  RirService svc;
  const RirResult r = svc.wait(svc.submit(spec));
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  ASSERT_EQ(r.wavPaths.size(), spec.receivers.size());
  for (const auto& path : r.wavPaths) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good()) << path;
    EXPECT_GT(in.tellg(), 44);  // header + samples
    in.close();
    std::remove(path.c_str());
  }
}

// A WAV export that cannot be written fails the job and names the file.
// /dev/full accepts the open and the buffered write, and refuses the flush
// in fclose.
TEST(RirService, WavWriteErrorFailsTheJob) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = ::testing::TempDir() + "lifta_svc_wav_full";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/job1_rx0.wav";  // a fresh service's job 1
  std::filesystem::create_symlink("/dev/full", path);
  auto spec = smallSpec(BoundaryModel::FiMm, 20);
  spec.wavDir = dir;
  RirService svc;
  const RirResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::Failed);
  EXPECT_NE(r.error.find(path), std::string::npos) << r.error;
  std::filesystem::remove_all(dir);
}

TEST(RirService, DeviceTierMatchesReferenceTierBitwise) {
  const auto spec = smallSpec(BoundaryModel::FiMm, 40);
  RirService svc;
  auto devSpec = spec;
  devSpec.tier = JobTier::Device;
  const RirResult ref = svc.wait(svc.submit(spec));
  const RirResult dev = svc.wait(svc.submit(devSpec));
  ASSERT_EQ(ref.status, JobStatus::Done) << ref.error;
  ASSERT_EQ(dev.status, JobStatus::Done) << dev.error;
  ASSERT_EQ(dev.traces.size(), ref.traces.size());
  for (std::size_t rx = 0; rx < ref.traces.size(); ++rx) {
    ASSERT_EQ(dev.traces[rx].size(), ref.traces[rx].size());
    for (std::size_t s = 0; s < ref.traces[rx].size(); ++s) {
      ASSERT_EQ(dev.traces[rx][s], ref.traces[rx][s])
          << "receiver " << rx << " step " << s;
    }
  }
}

// All three device kernel tiers must return the same bits (DESIGN.md §12:
// specialization only bakes scalars into index algebra), and finished
// tiered jobs must show up in the kernel-tiering metrics.
TEST(RirService, DeviceKernelTiersMatchGenericBitwise) {
  const auto base = smallSpec(BoundaryModel::FiMm, 40);
  RirService svc;
  auto generic = base;
  generic.tier = JobTier::Device;
  const RirResult g = svc.wait(svc.submit(generic));
  ASSERT_EQ(g.status, JobStatus::Done) << g.error;

  for (const auto tier :
       {DeviceKernelTier::Specialized, DeviceKernelTier::Tiered}) {
    auto spec = generic;
    spec.deviceKernelTier = tier;
    const RirResult r = svc.wait(svc.submit(spec));
    ASSERT_EQ(r.status, JobStatus::Done) << r.error;
    ASSERT_EQ(r.traces.size(), g.traces.size());
    for (std::size_t rx = 0; rx < g.traces.size(); ++rx) {
      for (std::size_t s = 0; s < g.traces[rx].size(); ++s) {
        ASSERT_EQ(r.traces[rx][s], g.traces[rx][s])
            << "tier " << static_cast<int>(tier) << " receiver " << rx
            << " step " << s;
      }
    }
  }

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.deviceJobsTiered, 2u);
  // The Specialized job compiled everything up front; the Tiered one may
  // or may not have swapped before finishing, but nothing can exceed the
  // per-job kernel count and the stayed-generic remainder accounts for it.
  EXPECT_GE(m.deviceKernelsSpecialized, 2u);
  const std::string json = m.toJson();
  EXPECT_NE(json.find("\"kernel_tiering\""), std::string::npos);
  EXPECT_NE(json.find("\"compile_queue\""), std::string::npos);
}

TEST(RirService, ConcurrentMixedBatchAllComplete) {
  RirService::Config cfg;
  cfg.workers = 3;
  RirService svc(cfg);
  std::vector<RirService::JobId> ids;
  for (const auto model : {BoundaryModel::FusedFi, BoundaryModel::FiSplit,
                           BoundaryModel::FiMm, BoundaryModel::FdMm}) {
    for (int i = 0; i < 2; ++i) {
      ids.push_back(svc.submit(smallSpec(model, 30)));
    }
  }
  svc.drain();
  for (const auto id : ids) {
    const RirResult r = svc.wait(id);
    EXPECT_EQ(r.status, JobStatus::Done) << r.error;
    EXPECT_EQ(r.stepsDone, 30);
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, ids.size());
  EXPECT_GT(m.cellStepsProcessed, 0u);
  EXPECT_GT(m.aggregateMcellsPerSecond(), 0.0);
  EXPECT_GT(m.jobsPerSecond(), 0.0);
  // Every job shares one dome grid: the voxel cache served the repeats.
  EXPECT_GT(m.voxelCacheHits, 0u);
}

TEST(RirService, MetricsJsonHasEverySection) {
  RirService svc;
  svc.wait(svc.submit(smallSpec(BoundaryModel::FusedFi, 10)));
  const std::string json = svc.metrics().toJson();
  for (const char* key :
       {"\"jobs\"", "\"submitted\"", "\"completed\"", "\"cell_steps_processed\"",
        "\"aggregate_mcells_per_second\"", "\"jobs_per_second\"",
        "\"queue_wait_ms\"", "\"median\"", "\"memory\"", "\"budget_bytes\"",
        "\"peak_in_use_bytes\"", "\"voxel_cache\"", "\"hit_rate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << "\n"
                                                 << json;
  }
}

TEST(RirService, DestructorCancelsOutstandingJobs) {
  RirService::Config cfg;
  cfg.workers = 1;
  auto svc = std::make_unique<RirService>(cfg);
  svc->submit(smallSpec(BoundaryModel::FiMm, 2'000'000));
  svc->submit(smallSpec(BoundaryModel::FiMm, 2'000'000));
  svc.reset();  // must cancel the running job, drop the queued one, and join
  SUCCEED();
}

TEST(RirService, EstimateCoversActualFootprintShape) {
  // The estimate must be a genuine upper bound on the dominant state (the
  // three pressure buffers + nbrs) and grow with FD-MM branch state.
  auto fi = smallSpec(BoundaryModel::FiMm, 10);
  auto fd = smallSpec(BoundaryModel::FdMm, 10);
  const std::size_t cells = fi.room.cells();
  EXPECT_GE(RirService::estimateMemoryBytes(fi), 3 * cells * 8 + cells * 4);
  EXPECT_GT(RirService::estimateMemoryBytes(fd),
            RirService::estimateMemoryBytes(fi));
  fi.precision = JobPrecision::Float32;
  EXPECT_LT(RirService::estimateMemoryBytes(fi),
            RirService::estimateMemoryBytes(fd));
  EXPECT_TRUE(RirService::validate(fd).empty());
}

TEST(RirService, EstimateGrowsWithTracesAndWavBuffers) {
  // Regression: the admission estimate used to omit the per-receiver trace
  // storage (steps x receivers x scalar) entirely, so long many-receiver
  // jobs were admitted as if their output were free.
  auto small = smallSpec(BoundaryModel::FiMm, 100);
  auto longer = small;
  longer.steps = 100000;
  const std::size_t base = RirService::estimateMemoryBytes(small);
  const std::size_t withSteps = RirService::estimateMemoryBytes(longer);
  // 99900 extra steps x 2 receivers x 8 bytes of trace.
  EXPECT_GE(withSteps - base, std::size_t{99900} * 2 * 8);

  auto moreRecv = longer;
  for (int i = 0; i < 6; ++i) moreRecv.receivers.push_back({5, 5, 5});
  const std::size_t withRecv = RirService::estimateMemoryBytes(moreRecv);
  EXPECT_GE(withRecv - withSteps, std::size_t{100000} * 6 * 8);

  auto withWav = moreRecv;
  withWav.wavDir = "/tmp/does-not-matter";
  EXPECT_GT(RirService::estimateMemoryBytes(withWav), withRecv);
}

// ---- ISM and hybrid fidelities ------------------------------------------

RirJobSpec ismSpec(int steps = 300) {
  RirJobSpec spec;
  spec.fidelity = Fidelity::Ism;
  spec.steps = steps;
  spec.params.sampleRate = 8000.0;
  spec.ism.room = {4.5, 3.8, 2.9};
  spec.ism.source = {1.2, 1.9, 1.4};
  spec.ism.receivers = {{3.1, 1.1, 1.6}, {2.2, 2.8, 1.0}};
  spec.ism.maxOrder = 3;
  spec.ism.wallBeta = {0.1, 0.2, 0.3, 0.15, 0.25, 0.35};
  return spec;
}

TEST(RirService, IsmJobMatchesEngineBitwise) {
  const auto spec = ismSpec();
  RirService svc;
  const RirResult r = svc.wait(svc.submit(spec));
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  EXPECT_EQ(r.stepsDone, spec.steps);
  EXPECT_TRUE(r.spliceEnergyRatio.empty());  // hybrid-only diagnostic

  // The service must produce exactly what a directly constructed engine
  // produces from the same spec fields.
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
  const ism::IsmEngine engine(cfg);
  const auto expected = engine.render();

  ASSERT_EQ(r.traces.size(), expected.size());
  for (std::size_t rx = 0; rx < expected.size(); ++rx) {
    ASSERT_EQ(r.traces[rx].size(), expected[rx].size());
    for (std::size_t s = 0; s < expected[rx].size(); ++s) {
      ASSERT_EQ(r.traces[rx][s], expected[rx][s])
          << "receiver " << rx << " sample " << s;
    }
  }

  const ServiceMetrics m = svc.metrics();
  const auto& eng = m.engines[static_cast<std::size_t>(Fidelity::Ism)];
  EXPECT_EQ(eng.jobs, 1u);
  EXPECT_EQ(eng.imageRenders, engine.images().size() * spec.ism.receivers.size());
  EXPECT_EQ(eng.cellSteps, 0u);
}

TEST(RirService, HybridJobSplicesIsmAndFdtdExactly) {
  auto spec = ismSpec(80);
  spec.fidelity = Fidelity::Hybrid;
  spec.params.sampleRate = 4000.0;  // coarse grid keeps the FDTD half small
  spec.ism.room = {2.6, 2.2, 2.0};
  spec.ism.source = {0.8, 1.1, 0.9};
  spec.ism.receivers = {{1.8, 0.9, 1.2}};
  spec.ism.crossoverStart = 20;
  spec.ism.crossoverEnd = 40;
  RirService svc;
  const RirResult r = svc.wait(svc.submit(spec));
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  ASSERT_EQ(r.traces.size(), 1u);
  ASSERT_EQ(r.traces[0].size(), 80u);
  ASSERT_EQ(r.spliceEnergyRatio.size(), 1u);

  // ISM side, reproduced directly.
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
  const ism::IsmEngine engine(icfg);
  const auto ismTrace = engine.renderReceiver(0);

  // FDTD side, reproduced directly: box grid over the room at h, FI-MM,
  // one mean-admittance material, cell-snapped source and receiver.
  const double h = spec.params.h();
  Simulation<double>::Config fcfg;
  fcfg.room = boxRoomFromMeters(spec.ism.room.lx, spec.ism.room.ly,
                                spec.ism.room.lz, h);
  fcfg.params = spec.params;
  fcfg.model = BoundaryModel::FiMm;
  fcfg.numMaterials = 1;
  double meanBeta = 0.0;
  for (const double b : spec.ism.wallBeta) meanBeta += b;
  fcfg.materials = {Material{meanBeta / ism::kNumWalls, {}}};
  Simulation<double> direct(fcfg);
  direct.addImpulse(cellForPosition(spec.ism.source.x, h, fcfg.room.nx),
                    cellForPosition(spec.ism.source.y, h, fcfg.room.ny),
                    cellForPosition(spec.ism.source.z, h, fcfg.room.nz), 1.0);
  const std::vector<Receiver> receivers = {
      {cellForPosition(spec.ism.receivers[0].x, h, fcfg.room.nx),
       cellForPosition(spec.ism.receivers[0].y, h, fcfg.room.ny),
       cellForPosition(spec.ism.receivers[0].z, h, fcfg.room.nz)}};
  const auto fdtdTrace = direct.record(spec.steps, receivers)[0];

  // Acceptance: the hybrid IS the ISM trace before the window and IS the
  // FDTD trace after it, bit-for-bit (unit-gain blend in between).
  for (int n = 0; n < spec.ism.crossoverStart; ++n) {
    ASSERT_EQ(r.traces[0][static_cast<std::size_t>(n)],
              ismTrace[static_cast<std::size_t>(n)])
        << "n=" << n;
  }
  for (int n = spec.ism.crossoverEnd; n < spec.steps; ++n) {
    ASSERT_EQ(r.traces[0][static_cast<std::size_t>(n)],
              fdtdTrace[static_cast<std::size_t>(n)])
        << "n=" << n;
  }

  // A hybrid job contributes to both engine work units.
  const ServiceMetrics m = svc.metrics();
  const auto& eng = m.engines[static_cast<std::size_t>(Fidelity::Hybrid)];
  EXPECT_EQ(eng.jobs, 1u);
  EXPECT_GT(eng.cellSteps, 0u);
  EXPECT_GT(eng.imageRenders, 0u);
}

// An interrupted hybrid job skips the stitch and returns the raw FDTD
// traces of the steps it ran: those of the discretized scene.
TEST(RirService, CancelRunningHybridJobReturnsRawFdtdTraces) {
  auto spec = ismSpec(1'000'000);
  spec.fidelity = Fidelity::Hybrid;
  spec.params.sampleRate = 4000.0;  // coarse grid keeps the FDTD half small
  spec.ism.room = {2.6, 2.2, 2.0};
  spec.ism.source = {0.8, 1.1, 0.9};
  spec.ism.receivers = {{1.8, 0.9, 1.2}, {1.2, 1.5, 0.6}};
  spec.ism.crossoverStart = 20;
  spec.ism.crossoverEnd = 40;
  RirService::Config cfg;
  cfg.workers = 1;
  RirService svc(cfg);
  const auto id = svc.submit(spec);
  waitUntilRunning(svc, id);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(svc.cancel(id));
  const RirResult r = svc.wait(id);
  ASSERT_EQ(r.status, JobStatus::Cancelled);
  EXPECT_LT(r.stepsDone, spec.steps);
  EXPECT_TRUE(r.spliceEnergyRatio.empty());
  ASSERT_EQ(r.traces.size(), spec.ism.receivers.size());

  RirJobSpec grid = spec;
  discretizeScene(grid);
  Simulation<double>::Config fcfg;
  fcfg.room = grid.room;
  fcfg.params = grid.params;
  fcfg.model = grid.model;
  fcfg.numMaterials = grid.numMaterials;
  fcfg.materials = grid.materials;
  Simulation<double> direct(fcfg);
  const Source& src = grid.sources.at(0);
  direct.addImpulse(src.x, src.y, src.z, src.amplitude);
  const auto expected = direct.record(r.stepsDone, grid.receivers);
  for (std::size_t rx = 0; rx < expected.size(); ++rx) {
    ASSERT_EQ(r.traces[rx].size(), static_cast<std::size_t>(r.stepsDone));
    for (std::size_t s = 0; s < expected[rx].size(); ++s) {
      ASSERT_EQ(r.traces[rx][s], expected[rx][s])
          << "receiver " << rx << " step " << s;
    }
  }
}

TEST(RirService, ValidateRejectsBadIsmSpecs) {
  auto spec = ismSpec();
  spec.tier = JobTier::Device;
  EXPECT_FALSE(RirService::validate(spec).empty());

  spec = ismSpec();
  spec.ism.source = {99.0, 1.0, 1.0};  // outside
  EXPECT_FALSE(RirService::validate(spec).empty());

  spec = ismSpec();
  spec.ism.maxOrder = 21;  // above the lattice cap
  EXPECT_FALSE(RirService::validate(spec).empty());

  spec = ismSpec();
  spec.checkpointPath = "/tmp/x";
  EXPECT_FALSE(RirService::validate(spec).empty());

  spec = ismSpec();
  spec.fidelity = Fidelity::Hybrid;
  spec.ism.crossoverStart = 10;
  spec.ism.crossoverEnd = 10;  // empty window
  EXPECT_FALSE(RirService::validate(spec).empty());

  spec = ismSpec();
  spec.fidelity = Fidelity::Hybrid;
  spec.ism.crossoverStart = 0;
  spec.ism.crossoverEnd = spec.steps + 1;  // past the trace
  EXPECT_FALSE(RirService::validate(spec).empty());

  EXPECT_TRUE(RirService::validate(ismSpec()).empty());
}

// The hybrid FDTD half steps through the loop that writes checkpoints, so
// a checkpoint cadence on an ISM or hybrid spec is refused, like a
// checkpoint path, instead of being ignored.
TEST(RirService, ValidateRejectsCheckpointCadenceOnIsmAndHybrid) {
  for (const auto fidelity : {Fidelity::Ism, Fidelity::Hybrid}) {
    auto spec = ismSpec(80);
    spec.fidelity = fidelity;
    spec.ism.crossoverStart = 20;
    spec.ism.crossoverEnd = 40;
    ASSERT_TRUE(RirService::validate(spec).empty())
        << RirService::validate(spec);
    spec.checkpointEverySteps = 5;
    EXPECT_NE(RirService::validate(spec).find("FDTD-fidelity only"),
              std::string::npos)
        << RirService::validate(spec);
  }
}

// A non-positive Courant number has no grid spacing (h = c*Ts/lambda).
// Admission refuses it on both tiers, where lambda = 0 used to record
// silence, and before a hybrid spec derives its grid from h, where
// lambda < 0 used to make submit() throw.
TEST(RirService, RejectsNonPositiveCourantNumber) {
  RirService svc;
  for (const double lambda : {-0.5, 0.0}) {
    auto hybrid = ismSpec(80);
    hybrid.fidelity = Fidelity::Hybrid;
    hybrid.ism.crossoverStart = 20;
    hybrid.ism.crossoverEnd = 40;
    hybrid.params.lambda = lambda;
    RirService::JobId id = 0;
    ASSERT_NO_THROW(id = svc.submit(hybrid)) << lambda;
    const RirResult r = svc.wait(id);
    EXPECT_EQ(r.status, JobStatus::Rejected) << lambda;
    EXPECT_NE(r.error.find("Courant"), std::string::npos) << r.error;
  }
  for (const auto tier : {JobTier::Reference, JobTier::Device}) {
    for (const double lambda : {0.0, -0.3}) {
      auto spec = smallSpec(BoundaryModel::FiMm, 10);
      spec.tier = tier;
      spec.params.lambda = lambda;
      const RirResult r = svc.wait(svc.submit(spec));
      EXPECT_EQ(r.status, JobStatus::Rejected) << lambda;
      EXPECT_NE(r.error.find("Courant"), std::string::npos) << r.error;
    }
  }
}

// A negative launch-plan threshold is refused at admission on every FDTD
// path, reference, device and hybrid alike, before a tier's constructor
// sees it.
TEST(RirService, RejectsNegativeBoundaryFissionMinPoints) {
  auto hybrid = ismSpec(80);
  hybrid.fidelity = Fidelity::Hybrid;
  hybrid.ism.crossoverStart = 20;
  hybrid.ism.crossoverEnd = 40;
  auto reference = smallSpec(BoundaryModel::FiMm, 10);
  auto device = reference;
  device.tier = JobTier::Device;
  RirService svc;
  for (auto* spec : {&reference, &device, &hybrid}) {
    spec->params.boundaryFissionMinPoints = -1;
    const auto id = svc.submit(*spec);
    EXPECT_EQ(svc.status(id), JobStatus::Rejected);  // immediate, no wait
    const RirResult r = svc.wait(id);
    EXPECT_NE(r.error.find("boundaryFissionMinPoints"), std::string::npos)
        << r.error;
  }
}

// A hybrid room under about 1.5 grid spacings a side derives a 3x3x3 FDTD
// grid, which voxelize refuses; admission rejects the job with a message
// about the hybrid grid instead of queueing it to fail in voxelize.
TEST(RirService, HybridRoomOfOneGridCellRejectedAtAdmission) {
  auto spec = ismSpec(40);
  spec.fidelity = Fidelity::Hybrid;
  spec.ism.crossoverStart = 5;
  spec.ism.crossoverEnd = 10;
  spec.ism.room = {0.1, 0.1, 0.1};
  spec.ism.source = {0.05, 0.05, 0.05};
  spec.ism.receivers = {{0.03, 0.04, 0.06}};
  ASSERT_TRUE(hasIsolatedInsideCell(
      boxRoomFromMeters(0.1, 0.1, 0.1, spec.params.h())));
  const std::string why = RirService::validate(spec);
  EXPECT_NE(why.find("hybrid FDTD grid"), std::string::npos) << why;
  RirService svc;
  EXPECT_EQ(svc.wait(svc.submit(spec)).status, JobStatus::Rejected);

  spec.ism.room.lz = 0.2;  // 3 interior cells along z
  EXPECT_TRUE(RirService::validate(spec).empty())
      << RirService::validate(spec);
}

TEST(RirService, IsmJobRunsWithWavExport) {
  auto spec = ismSpec(120);
  spec.wavDir = ::testing::TempDir();
  RirService svc;
  const RirResult r = svc.wait(svc.submit(spec));
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  ASSERT_EQ(r.wavPaths.size(), 2u);
  for (const auto& path : r.wavPaths) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::remove(path.c_str());
  }
}

TEST(RirService, EstimateCoversIsmAndHybridJobs) {
  // Regression: non-FDTD jobs must not be estimated from the (ignored)
  // grid-domain fields — an ISM job's footprint is its traces plus the
  // image lattice, and a hybrid job adds the full FDTD grid state.
  const auto ism = ismSpec(1000);
  const std::size_t ismBytes = RirService::estimateMemoryBytes(ism);
  // Traces: steps x receivers x 8 bytes; lattice: countImages(3) images.
  const std::size_t traceBytes = std::size_t{1000} * 2 * 8;
  const std::size_t latticeBytes =
      ism::IsmEngine::countImages(3) * sizeof(ism::ImageSource);
  EXPECT_EQ(ismBytes, traceBytes + latticeBytes);

  auto deeper = ism;
  deeper.ism.maxOrder = 8;
  EXPECT_GT(RirService::estimateMemoryBytes(deeper), ismBytes);

  auto hybrid = ism;
  hybrid.fidelity = Fidelity::Hybrid;
  hybrid.params.sampleRate = 4000.0;
  hybrid.ism.crossoverStart = 10;
  hybrid.ism.crossoverEnd = 50;
  const std::size_t hybridBytes = RirService::estimateMemoryBytes(hybrid);
  // The hybrid estimate covers the FDTD grid (3 double buffers + nbrs) and
  // the ISM + FDTD traces held alongside the stitched result.
  const Room grid = boxRoomFromMeters(hybrid.ism.room.lx, hybrid.ism.room.ly,
                                      hybrid.ism.room.lz,
                                      hybrid.params.h());
  EXPECT_GE(hybridBytes, grid.cells() * (3 * 8 + 4) + 3 * traceBytes);
  EXPECT_GT(hybridBytes, ismBytes);
}

}  // namespace
