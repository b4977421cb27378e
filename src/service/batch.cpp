#include "service/batch.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/wav.hpp"

namespace lifta::service {

const char* shardFormatName(ShardFormat f) {
  switch (f) {
    case ShardFormat::RawF32: return "raw-f32";
    case ShardFormat::Wav: return "wav";
  }
  return "?";
}

namespace {

void validateBatch(const BatchSpec& spec) {
  LIFTA_CHECK(spec.scenes >= 1, "batch needs at least one scene");
  LIFTA_CHECK(spec.steps >= 1, "steps must be >= 1");
  LIFTA_CHECK(spec.shardSize >= 1, "shardSize must be >= 1");
  LIFTA_CHECK(!spec.outDir.empty(), "batch needs an output directory");
}

/// Little-endian float32 serialization (matches the WAV writer's manual
/// little-endian layout, so shards are portable across hosts).
void putF32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  out.push_back(static_cast<std::uint8_t>(bits & 0xff));
  out.push_back(static_cast<std::uint8_t>((bits >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((bits >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((bits >> 24) & 0xff));
}

}  // namespace

std::vector<RirJobSpec> expandBatch(const BatchSpec& spec) {
  validateBatch(spec);
  std::vector<RirJobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(spec.scenes));
  for (int i = 0; i < spec.scenes; ++i) {
    const ism::SampledScene scene = ism::sampleScene(spec.ranges, spec.seed, i);
    RirJobSpec job;
    job.fidelity = spec.fidelity;
    job.steps = spec.steps;
    job.params = spec.params;
    job.priority = spec.priority;
    job.ism.room = scene.room;
    job.ism.source = scene.source;
    job.ism.receivers = scene.receivers;
    job.ism.wallBeta = scene.wallBeta;
    job.ism.maxOrder = spec.maxOrder;
    job.ism.sincHalfWidth = spec.sincHalfWidth;
    job.ism.crossoverStart = spec.crossoverStart;
    job.ism.crossoverEnd = spec.crossoverEnd;
    job.ism.matchEnergyAtSplice = spec.matchEnergyAtSplice;
    if (spec.fidelity == Fidelity::Fdtd) {
      job.tier = spec.fdtdTier;
      job.deviceKernelTier = spec.deviceKernelTier;
      // Pure-FDTD batches step the grid a hybrid job's FDTD half steps.
      discretizeScene(job);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::size_t estimateBatchMemoryBytes(const BatchSpec& spec) {
  std::size_t total = 0;
  for (const auto& job : expandBatch(spec)) {
    total += RirService::estimateMemoryBytes(job);
  }
  return total;
}

BatchResult runRirBatch(RirService& svc, const BatchSpec& spec) {
  validateBatch(spec);
  Timer wall;
  const std::vector<RirJobSpec> jobs = expandBatch(spec);

  BatchResult out;
  out.scenesRequested = spec.scenes;

  std::vector<RirService::JobId> ids;
  ids.reserve(jobs.size());
  for (const auto& job : jobs) ids.push_back(svc.submit(job));

  std::vector<RirResult> results;
  results.reserve(ids.size());
  for (const auto id : ids) results.push_back(svc.wait(id));
  for (const auto& r : results) out.sceneStatus.push_back(r.status);

  // Shard writing happens after every job is terminal, in scene order, so
  // the byte layout never depends on completion interleaving.
  const int receivers = spec.ranges.receiversPerScene;
  if (spec.format == ShardFormat::RawF32) {
    std::vector<std::uint8_t> shard;
    int scenesInShard = 0;
    int shardIndex = 0;
    const auto flush = [&] {
      if (scenesInShard == 0) return;
      const std::string path =
          strformat("%s/shard_%05d.f32", spec.outDir.c_str(), shardIndex);
      writeFileBytes(path, shard);
      out.shardPaths.push_back(path);
      shard.clear();
      scenesInShard = 0;
      ++shardIndex;
    };
    for (const auto& r : results) {
      if (r.status != JobStatus::Done) continue;
      for (const auto& trace : r.traces) {
        for (const double s : trace) putF32(shard, static_cast<float>(s));
      }
      out.rirsWritten += static_cast<int>(r.traces.size());
      ++out.scenesWritten;
      if (++scenesInShard == spec.shardSize) flush();
    }
    flush();
  } else {
    const int rate = static_cast<int>(spec.params.sampleRate);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      if (r.status != JobStatus::Done) continue;
      for (std::size_t rx = 0; rx < r.traces.size(); ++rx) {
        const std::string path = strformat("%s/rir%05zu_rx%zu.wav",
                                           spec.outDir.c_str(), i, rx);
        writeWav(path, r.traces[rx], rate);
        out.shardPaths.push_back(path);
        ++out.rirsWritten;
      }
      ++out.scenesWritten;
    }
  }

  JsonWriter manifest;
  manifest.beginObject()
      .field("format", shardFormatName(spec.format))
      .field("fidelity", fidelityName(spec.fidelity))
      .field("seed", spec.seed)
      .field("scenes_requested", out.scenesRequested)
      .field("scenes_written", out.scenesWritten)
      .field("rirs_written", out.rirsWritten)
      .field("receivers_per_scene", receivers)
      .field("steps", spec.steps)
      .field("sample_rate_hz", spec.params.sampleRate, 1)
      .field("max_order", spec.maxOrder)
      .field("shard_size_scenes", spec.shardSize);
  manifest.key("shards").beginArray();
  for (const auto& path : out.shardPaths) manifest.value(path);
  manifest.endArray();
  manifest.key("scene_status").beginArray();
  for (const auto s : out.sceneStatus) manifest.value(jobStatusName(s));
  manifest.endArray();
  manifest.endObject();
  out.manifestPath = spec.outDir + "/manifest.json";
  manifest.writeFile(out.manifestPath);

  out.wallSeconds = wall.seconds();
  out.rirsPerSecond = out.wallSeconds > 0.0
                          ? static_cast<double>(out.rirsWritten) /
                                out.wallSeconds
                          : 0.0;
  return out;
}

}  // namespace lifta::service
