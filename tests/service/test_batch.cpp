// The batch RIR dataset API: deterministic expansion, hash-stable shard
// sets, manifest contents, WAV shards round-tripping through readWav, and
// the per-engine service counters batches feed.
#include "service/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/wav.hpp"

namespace fs = std::filesystem;

using namespace lifta;
using namespace lifta::service;

namespace {

std::string freshDir(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/lifta_batch_" + tag;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::vector<unsigned char> readAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(f),
                                    std::istreambuf_iterator<char>());
}

std::string readText(const std::string& path) {
  const auto bytes = readAll(path);
  return std::string(bytes.begin(), bytes.end());
}

BatchSpec smallIsmBatch(const std::string& outDir) {
  BatchSpec spec;
  spec.scenes = 6;
  spec.seed = 1234;
  spec.ranges.receiversPerScene = 2;
  spec.fidelity = Fidelity::Ism;
  spec.steps = 400;
  spec.params.sampleRate = 8000.0;
  spec.maxOrder = 2;
  spec.outDir = outDir;
  spec.format = ShardFormat::RawF32;
  spec.shardSize = 4;  // 6 scenes -> shard of 4 + shard of 2
  return spec;
}

TEST(Batch, ExpandIsDeterministicAndFillsIsmFields) {
  const auto a = expandBatch(smallIsmBatch("unused"));
  const auto b = expandBatch(smallIsmBatch("unused"));
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fidelity, Fidelity::Ism);
    EXPECT_EQ(a[i].steps, 400);
    EXPECT_EQ(a[i].ism.receivers.size(), 2u);
    EXPECT_EQ(a[i].ism.maxOrder, 2);
    // Bitwise-equal sampled geometry across expansions.
    EXPECT_EQ(a[i].ism.room.lx, b[i].ism.room.lx);
    EXPECT_EQ(a[i].ism.source.x, b[i].ism.source.x);
    EXPECT_EQ(a[i].ism.wallBeta[0], b[i].ism.wallBeta[0]);
  }
  // Scenes differ from each other.
  EXPECT_NE(a[0].ism.room.lx, a[1].ism.room.lx);
}

TEST(Batch, FdtdExpansionDiscretizesScenes) {
  auto spec = smallIsmBatch("unused");
  spec.fidelity = Fidelity::Fdtd;
  spec.scenes = 2;
  spec.steps = 10;
  const auto jobs = expandBatch(spec);
  ASSERT_EQ(jobs.size(), 2u);
  const double h = spec.params.h();
  for (const auto& job : jobs) {
    EXPECT_EQ(job.fidelity, Fidelity::Fdtd);
    // Grid covers the sampled room (interior cells + 2 halo).
    EXPECT_EQ(job.room.nx,
              std::max<std::int64_t>(1, std::lround(job.ism.room.lx / h)) + 2);
    EXPECT_EQ(job.numMaterials, 1);
    ASSERT_EQ(job.sources.size(), 1u);
    ASSERT_EQ(job.receivers.size(), 2u);
    // Snapped cells are interior.
    EXPECT_GE(job.sources[0].x, 1);
    EXPECT_LT(job.sources[0].x, job.room.nx - 1);
  }
}

TEST(Batch, RawShardsAreHashStableAcrossRuns) {
  const std::string dirA = freshDir("runA");
  const std::string dirB = freshDir("runB");

  RirService::Config cfg;
  cfg.workers = 3;  // completion interleaving must not affect the bytes
  BatchResult ra, rb;
  {
    RirService svc(cfg);
    ra = runRirBatch(svc, smallIsmBatch(dirA));
  }
  {
    RirService svc(cfg);
    rb = runRirBatch(svc, smallIsmBatch(dirB));
  }

  EXPECT_EQ(ra.scenesWritten, 6);
  EXPECT_EQ(ra.rirsWritten, 12);
  ASSERT_EQ(ra.shardPaths.size(), 2u);  // 4 + 2 scenes
  ASSERT_EQ(rb.shardPaths.size(), 2u);
  for (std::size_t i = 0; i < ra.shardPaths.size(); ++i) {
    const auto bytesA = readAll(ra.shardPaths[i]);
    const auto bytesB = readAll(rb.shardPaths[i]);
    // [scenes][receivers][steps] float32: shard 0 holds 4 scenes.
    const std::size_t scenes = i == 0 ? 4 : 2;
    EXPECT_EQ(bytesA.size(), scenes * 2 * 400 * 4);
    EXPECT_EQ(bytesA, bytesB) << "shard " << i << " differs across runs";
  }

  for (const auto s : ra.sceneStatus) EXPECT_EQ(s, JobStatus::Done);
  EXPECT_GT(ra.rirsPerSecond, 0.0);
}

// A device-tier batch with tiered kernels must produce the same shard
// bytes as a generic-kernel batch (specialization is bit-identical), and
// its jobs must submit their specialized builds to the background compile
// queue.
TEST(Batch, DeviceTieredBatchMatchesGenericBitwise) {
  const std::string dirG = freshDir("devGeneric");
  const std::string dirT = freshDir("devTiered");

  auto base = smallIsmBatch(dirG);
  base.fidelity = Fidelity::Fdtd;
  base.fdtdTier = JobTier::Device;
  base.scenes = 2;
  base.steps = 25;
  base.shardSize = 2;

  BatchResult rg, rt;
  std::uint64_t compilesBefore = 0, compilesAfter = 0;
  {
    RirService svc;
    rg = runRirBatch(svc, base);
    compilesBefore = svc.metrics().compileSubmitted;
  }
  {
    auto tiered = base;
    tiered.outDir = dirT;
    tiered.deviceKernelTier = DeviceKernelTier::Tiered;
    RirService svc;
    rt = runRirBatch(svc, tiered);
    const ServiceMetrics m = svc.metrics();
    compilesAfter = m.compileSubmitted;
    EXPECT_EQ(m.deviceJobsTiered, 2u);
  }

  EXPECT_EQ(rg.scenesWritten, 2);
  EXPECT_EQ(rt.scenesWritten, 2);
  // Each tiered job submits one specialized build per kernel launch: the
  // volume and at least one boundary kernel.
  EXPECT_GE(compilesAfter, compilesBefore + 4);
  ASSERT_EQ(rg.shardPaths.size(), rt.shardPaths.size());
  for (std::size_t i = 0; i < rg.shardPaths.size(); ++i) {
    EXPECT_EQ(readAll(rg.shardPaths[i]), readAll(rt.shardPaths[i]))
        << "tiered shard " << i << " diverged from generic";
  }
}

TEST(Batch, ManifestDescribesTheDataset) {
  const std::string dir = freshDir("manifest");
  RirService svc;
  const auto res = runRirBatch(svc, smallIsmBatch(dir));
  ASSERT_FALSE(res.manifestPath.empty());
  const std::string json = readText(res.manifestPath);
  EXPECT_NE(json.find("\"format\": \"raw-f32\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fidelity\": \"ism\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"seed\": 1234"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scenes_written\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rirs_written\": 12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"receivers_per_scene\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"steps\": 400"), std::string::npos) << json;
  EXPECT_NE(json.find("shard_00000.f32"), std::string::npos) << json;
  EXPECT_NE(json.find("shard_00001.f32"), std::string::npos) << json;
}

TEST(Batch, WavShardsRoundTripThroughReader) {
  const std::string dir = freshDir("wav");
  auto spec = smallIsmBatch(dir);
  spec.scenes = 2;
  spec.format = ShardFormat::Wav;
  RirService svc;
  const auto res = runRirBatch(svc, spec);
  EXPECT_EQ(res.scenesWritten, 2);
  ASSERT_EQ(res.shardPaths.size(), 4u);  // 2 scenes x 2 receivers
  for (const auto& path : res.shardPaths) {
    const WavData wav = readWav(path);
    EXPECT_EQ(wav.sampleRateHz, 8000);
    EXPECT_EQ(wav.samples.size(), 400u);
  }
}

TEST(Batch, EstimateSumsPerJobEstimates) {
  auto spec = smallIsmBatch("unused");
  const auto jobs = expandBatch(spec);
  std::size_t expected = 0;
  for (const auto& job : jobs) expected += RirService::estimateMemoryBytes(job);
  EXPECT_EQ(estimateBatchMemoryBytes(spec), expected);
  EXPECT_GT(expected, 0u);
}

TEST(Batch, EngineCountersTrackFidelities) {
  const std::string dir = freshDir("counters");
  RirService svc;
  const auto spec = smallIsmBatch(dir);
  runRirBatch(svc, spec);
  const ServiceMetrics m = svc.metrics();
  const auto& ism = m.engines[static_cast<std::size_t>(Fidelity::Ism)];
  EXPECT_EQ(ism.jobs, 6u);
  EXPECT_GT(ism.imageRenders, 0u);
  EXPECT_EQ(ism.cellSteps, 0u);  // no FDTD work in an ISM batch
  const auto& fdtd = m.engines[static_cast<std::size_t>(Fidelity::Fdtd)];
  EXPECT_EQ(fdtd.jobs, 0u);

  const std::string json = m.toJson();
  EXPECT_NE(json.find("\"engines\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ism\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"image_renders\""), std::string::npos) << json;
}

// A shard that cannot be written fails the batch. /dev/full accepts the
// open and the buffered write, and refuses the flush in fclose; the one
// 3200-byte shard here fits the stdio buffer, so only fclose sees it.
TEST(Batch, ShardWriteErrorThrows) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = freshDir("dev_full");
  fs::create_symlink("/dev/full", dir + "/shard_00000.f32");
  auto spec = smallIsmBatch(dir);
  spec.scenes = 1;
  RirService svc;
  EXPECT_THROW(runRirBatch(svc, spec), Error);
  fs::remove_all(dir);
}

TEST(Batch, RejectsMalformedSpecs) {
  BatchSpec bad;
  bad.scenes = 0;
  bad.steps = 10;
  bad.outDir = "x";
  EXPECT_THROW(expandBatch(bad), Error);

  bad = BatchSpec{};
  bad.scenes = 1;
  bad.steps = 0;
  bad.outDir = "x";
  EXPECT_THROW(expandBatch(bad), Error);

  bad = BatchSpec{};
  bad.scenes = 1;
  bad.steps = 10;
  bad.outDir = "";
  EXPECT_THROW(expandBatch(bad), Error);
}

}  // namespace
