// Seeded job generators for the three benchmark workloads. The benchmark
// takes the seed; the program under test only ever sees the generated
// specs. Every source and receiver cell is drawn with Room::inside, so no
// generated job is rejected for a point outside a dome or an L-shape.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>

#include "acoustics/geometry.hpp"
#include "common/rng.hpp"
#include "service/batch.hpp"
#include "service/rir_service.hpp"

namespace rirbench {

namespace ac = lifta::acoustics;
namespace sv = lifta::service;

enum class Workload { RefRir, DeviceTiered, DatasetHybrid };
inline constexpr int kNumWorkloads = 3;

const char* workloadName(Workload w);
bool parseWorkload(const std::string& s, Workload* out);

/// Problem sizes. `tiny` shrinks every room and step count so the smoke
/// test runs each workload in seconds; the timed benchmark uses full.
struct Sizes {
  std::array<int, 3> refDims{160, 108, 80};
  int refSteps = 400;
  std::array<int, 3> deviceDims{96, 72, 56};
  int deviceJitter = 2;  // each device room dim is base +- this many cells
  int deviceSteps = 600;
  int hybridSteps = 400;
  int batchScenes = 48;
  lifta::ism::SceneRanges hybridRanges;

  static Sizes full();
  static Sizes tiny();
};

/// Independent per-(stream, index) seed, so job i of a workload does not
/// depend on how many jobs precede it.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index);

/// ref_rir: box, dome and L-shape at refDims; FI-MM (3 materials) and
/// FD-MM (3 materials x 3 branches); job i runs combo i % 6. Reference
/// tier, f64, one source, two receivers, `steps` steps.
inline constexpr int kRefCombos = 6;
ac::Room refRoom(const Sizes& z, int combo);
sv::RirJobSpec refJob(const Sizes& z, std::uint64_t seed, int index);

/// device_tiered: LIFT device tier with tiered kernels, cycling FI-MM/FD-MM
/// x f32/f64, each job on a fresh box room around deviceDims. Sequential:
/// the generator remembers the rooms it handed out and never repeats one.
inline constexpr int kDeviceCombos = 4;
class DeviceJobs {
public:
  DeviceJobs(const Sizes& z, std::uint64_t seed) : z_(z), seed_(seed) {}
  sv::RirJobSpec next();
  int issued() const { return index_; }

private:
  Sizes z_;
  std::uint64_t seed_;
  int index_ = 0;
  std::set<std::array<int, 3>> used_;
};

/// A box room outside every device job's dims, for kernel warm-up.
ac::Room deviceWarmRoom(const Sizes& z);

/// dataset_hybrid: batch `index` of the run (Hybrid fidelity, 8 kHz,
/// small shoeboxes, two receivers per scene, RawF32 shards into outDir).
sv::BatchSpec hybridBatch(const Sizes& z, std::uint64_t seed, int index,
                          const std::string& outDir);

}  // namespace rirbench
