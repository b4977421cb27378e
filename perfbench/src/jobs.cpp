#include "jobs.hpp"

#include "common/error.hpp"

namespace rirbench {

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::RefRir: return "ref_rir";
    case Workload::DeviceTiered: return "device_tiered";
    case Workload::DatasetHybrid: return "dataset_hybrid";
  }
  return "?";
}

bool parseWorkload(const std::string& s, Workload* out) {
  for (int w = 0; w < kNumWorkloads; ++w) {
    if (s == workloadName(static_cast<Workload>(w))) {
      *out = static_cast<Workload>(w);
      return true;
    }
  }
  return false;
}

Sizes Sizes::full() {
  Sizes z;
  // ism_batch's small-shoebox ranges: ~35-46 cells per side at 8 kHz.
  z.hybridRanges.minDims = {2.6, 2.3, 2.1};
  z.hybridRanges.maxDims = {3.4, 3.0, 2.6};
  z.hybridRanges.receiversPerScene = 2;
  return z;
}

Sizes Sizes::tiny() {
  Sizes z = full();
  z.refDims = {40, 28, 22};
  z.refSteps = 30;
  z.deviceDims = {30, 26, 22};
  z.deviceSteps = 30;
  z.hybridSteps = 40;
  z.batchScenes = 3;
  z.hybridRanges.minDims = {1.6, 1.6, 1.6};
  z.hybridRanges.maxDims = {2.0, 2.0, 1.8};
  return z;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  lifta::Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                 (index * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

namespace {

constexpr std::uint64_t kRefStream = 1;
constexpr std::uint64_t kDeviceStream = 2;
constexpr std::uint64_t kHybridStream = 3;

/// A uniformly drawn inside cell (rejection sampling over the interior).
sv::Source insideCell(const ac::Room& room, lifta::Rng& rng) {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const int x = static_cast<int>(rng.uniformInt(1, room.nx - 2));
    const int y = static_cast<int>(rng.uniformInt(1, room.ny - 2));
    const int z = static_cast<int>(rng.uniformInt(1, room.nz - 2));
    if (room.inside(x, y, z)) return {x, y, z, 1.0};
  }
  throw lifta::Error("no inside cell found");
}

void placeSourceAndReceivers(sv::RirJobSpec& spec, lifta::Rng& rng) {
  spec.sources = {insideCell(spec.room, rng)};
  for (int r = 0; r < 2; ++r) {
    const sv::Source c = insideCell(spec.room, rng);
    spec.receivers.push_back({c.x, c.y, c.z});
  }
}

void setModel(sv::RirJobSpec& spec, bool fdmm) {
  spec.model = fdmm ? ac::BoundaryModel::FdMm : ac::BoundaryModel::FiMm;
  spec.numMaterials = 3;
  spec.numBranches = fdmm ? 3 : 0;
}

}  // namespace

ac::Room refRoom(const Sizes& z, int combo) {
  static constexpr ac::RoomShape kShapes[] = {
      ac::RoomShape::Box, ac::RoomShape::Dome, ac::RoomShape::LShape};
  return {kShapes[(combo / 2) % 3], z.refDims[0], z.refDims[1], z.refDims[2]};
}

sv::RirJobSpec refJob(const Sizes& z, std::uint64_t seed, int index) {
  const int combo = index % kRefCombos;
  lifta::Rng rng(mixSeed(seed, kRefStream, static_cast<std::uint64_t>(index)));
  sv::RirJobSpec spec;
  spec.room = refRoom(z, combo);
  setModel(spec, combo % 2 == 1);
  spec.steps = z.refSteps;
  spec.precision = sv::JobPrecision::Float64;
  spec.tier = sv::JobTier::Reference;
  placeSourceAndReceivers(spec, rng);
  return spec;
}

sv::RirJobSpec DeviceJobs::next() {
  const int index = index_++;
  const int combo = index % kDeviceCombos;
  lifta::Rng rng(
      mixSeed(seed_, kDeviceStream, static_cast<std::uint64_t>(index)));
  std::array<int, 3> dims{};
  do {
    for (int d = 0; d < 3; ++d) {
      dims[static_cast<std::size_t>(d)] =
          z_.deviceDims[static_cast<std::size_t>(d)] +
          static_cast<int>(rng.uniformInt(-z_.deviceJitter, z_.deviceJitter));
    }
  } while (!used_.insert(dims).second);
  sv::RirJobSpec spec;
  spec.room = {ac::RoomShape::Box, dims[0], dims[1], dims[2]};
  setModel(spec, combo % 2 == 1);
  spec.precision =
      combo < 2 ? sv::JobPrecision::Float32 : sv::JobPrecision::Float64;
  spec.steps = z_.deviceSteps;
  spec.tier = sv::JobTier::Device;
  spec.deviceKernelTier = sv::DeviceKernelTier::Tiered;
  placeSourceAndReceivers(spec, rng);
  return spec;
}

ac::Room deviceWarmRoom(const Sizes& z) {
  const int pad = z.deviceJitter + 4;
  return {ac::RoomShape::Box, z.deviceDims[0] + pad, z.deviceDims[1] + pad,
          z.deviceDims[2] + pad};
}

sv::BatchSpec hybridBatch(const Sizes& z, std::uint64_t seed, int index,
                          const std::string& outDir) {
  sv::BatchSpec spec;
  spec.scenes = z.batchScenes;
  spec.seed = mixSeed(seed, kHybridStream, static_cast<std::uint64_t>(index));
  spec.ranges = z.hybridRanges;
  spec.fidelity = sv::Fidelity::Hybrid;
  spec.steps = z.hybridSteps;
  spec.params.sampleRate = 8000.0;
  spec.maxOrder = 6;
  spec.crossoverStart = z.hybridSteps / 8;
  spec.crossoverEnd = z.hybridSteps / 4;
  spec.outDir = outDir;
  spec.format = sv::ShardFormat::RawF32;
  return spec;
}

}  // namespace rirbench
