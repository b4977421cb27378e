// Batch RIR dataset API: N sampled scenes -> shards on disk.
//
// The ML-data-augmentation workload gpuRIR and pyroomacoustics serve at
// scale: one submission describes thousands of related simulations (rooms,
// sources, receivers drawn from a seeded sampler) and the service amortizes
// scheduling, admission and — for the FDTD tiers — voxelization caching
// across all of them. Expansion is deterministic: identical (spec.seed,
// ranges, count) reproduce bit-identical job specs, and because every
// engine is deterministic too, the written shard set is byte-identical
// across runs (hash-stable datasets).
//
// Output formats:
//  - RawF32: shard_NNNNN.f32 files of little-endian float32 tensors shaped
//    [scenesInShard][receiversPerScene][steps], `shardSize` scenes per
//    shard (the last shard may be short), plus a manifest.json describing
//    the layout.
//  - Wav: one 16-bit PCM file per (scene, receiver), rirNNNNN_rxR.wav,
//    un-normalized (clamped to [-1, 1]) so relative amplitudes survive,
//    plus the same manifest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ism/sampler.hpp"
#include "service/rir_service.hpp"

namespace lifta::service {

enum class ShardFormat { RawF32, Wav };

const char* shardFormatName(ShardFormat f);

struct BatchSpec {
  /// Number of scenes (rooms x source) to sample; each contributes
  /// ranges.receiversPerScene RIRs.
  int scenes = 0;
  std::uint64_t seed = 1;
  ism::SceneRanges ranges;

  Fidelity fidelity = Fidelity::Ism;
  /// Samples per RIR (RirJobSpec::steps).
  int steps = 0;
  /// Shared scheme parameters: sampleRate and c drive the ISM renderer,
  /// and additionally the grid spacing for the Hybrid fidelity's FDTD
  /// half. threads/stepper knobs apply to FDTD stepping.
  acoustics::SimParams params;

  int maxOrder = 6;
  int sincHalfWidth = 32;
  /// Hybrid only: crossover window, samples.
  int crossoverStart = 0;
  int crossoverEnd = 0;
  bool matchEnergyAtSplice = false;

  /// Fdtd fidelity only: which implementation tier steps each job.
  JobTier fdtdTier = JobTier::Reference;
  /// Fdtd + Device tier only: kernel tiering mode for every expanded job.
  /// Specialized kernels are keyed by job class, so the first job of a
  /// class builds them and every later room of the class reuses them.
  DeviceKernelTier deviceKernelTier = DeviceKernelTier::Generic;

  /// Existing directory the shards and manifest are written into.
  std::string outDir;
  ShardFormat format = ShardFormat::RawF32;
  /// Scenes per RawF32 shard file.
  int shardSize = 64;
  /// Queue priority shared by every expanded job.
  int priority = 0;
};

struct BatchResult {
  int scenesRequested = 0;
  /// Scenes whose jobs finished Done and were written to shards; scenes
  /// with failed/rejected jobs are skipped (sceneStatus says why).
  int scenesWritten = 0;
  int rirsWritten = 0;
  std::vector<JobStatus> sceneStatus;  // per scene, expansion order
  std::vector<std::string> shardPaths;
  std::string manifestPath;
  double wallSeconds = 0.0;
  /// Completed RIRs per wall second, the dataset-generation throughput the
  /// fidelity tiers are compared on (bench/ism_batch).
  double rirsPerSecond = 0.0;
};

/// Deterministic expansion of a batch into per-scene job specs (scene i ->
/// spec i). Exposed for tests and capacity planning; runRirBatch submits
/// exactly these.
std::vector<RirJobSpec> expandBatch(const BatchSpec& spec);

/// Sum of per-job admission estimates over the expanded batch — what the
/// whole dataset needs if every job ran at once; the service's budget
/// admission meters the actual concurrency below this.
std::size_t estimateBatchMemoryBytes(const BatchSpec& spec);

/// Expands, submits and waits for the whole batch on `svc`, then writes
/// the shard set in scene order (deterministic byte layout for a fixed
/// seed). Blocking. Throws lifta::Error for unwritable outDir or malformed
/// specs (scenes < 1, steps < 1, shardSize < 1).
BatchResult runRirBatch(RirService& svc, const BatchSpec& spec);

}  // namespace lifta::service
