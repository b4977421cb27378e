// Physics and cross-model equivalence tests of the reference simulation:
// stability, boundary absorption, the structural equalities the paper
// relies on (fused == two-kernel; FI-MM with one material == FI; FD-MM with
// inert branches == FI-MM), and the stepper's bit-identity with the
// listings' whole-grid kernels across shapes, threads, tileZ, launch plans
// and precisions.
#include "acoustics/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "listing_oracle.hpp"

namespace lifta::acoustics {
namespace {

template <typename T>
typename Simulation<T>::Config smallBox(BoundaryModel model,
                                        int numMaterials = 1,
                                        int numBranches = 0) {
  typename Simulation<T>::Config cfg;
  cfg.room = Room{RoomShape::Box, 22, 18, 14};
  cfg.model = model;
  cfg.numMaterials = numMaterials;
  cfg.numBranches = numBranches;
  return cfg;
}

TEST(Simulation, ImpulsePropagatesOutward) {
  Simulation<double> sim(smallBox<double>(BoundaryModel::FusedFi));
  sim.addImpulse(10, 9, 7, 1.0);
  EXPECT_DOUBLE_EQ(sim.sample(10, 9, 7), 1.0);
  sim.step();
  sim.step();
  // After two steps the neighbors two cells away have received energy.
  EXPECT_NE(sim.sample(12, 9, 7), 0.0);
  EXPECT_NE(sim.sample(10, 9, 5), 0.0);
}

TEST(Simulation, WaveStaysSymmetricInSymmetricRoom) {
  typename Simulation<double>::Config cfg;
  cfg.room = Room{RoomShape::Box, 17, 17, 17};
  cfg.model = BoundaryModel::FusedFi;
  Simulation<double> sim(cfg);
  sim.addImpulse(8, 8, 8, 1.0);
  for (int i = 0; i < 30; ++i) sim.step();
  // The cubic symmetry of room + source is preserved up to FP rounding
  // (the neighbor sum evaluates in a fixed order, so mirrored points see
  // their operands in swapped order).
  EXPECT_NEAR(sim.sample(8 + 3, 8, 8), sim.sample(8 - 3, 8, 8), 1e-12);
  EXPECT_NEAR(sim.sample(8, 8 + 3, 8), sim.sample(8, 8, 8 + 3), 1e-12);
  EXPECT_NEAR(sim.sample(8 + 2, 8 + 1, 8), sim.sample(8 + 1, 8 + 2, 8), 1e-12);
}

TEST(Simulation, StableAtCourantLimitOverManySteps) {
  Simulation<double> sim(smallBox<double>(BoundaryModel::FusedFi));
  sim.addImpulse(10, 9, 7, 1.0);
  for (int i = 0; i < 2000; ++i) sim.step();
  EXPECT_LT(sim.maxAbs(), 10.0);  // bounded: no instability
  EXPECT_TRUE(std::isfinite(sim.energy()));
}

TEST(Simulation, AbsorbingWallsDissipateEnergy) {
  auto cfg = smallBox<double>(BoundaryModel::FusedFi);
  cfg.materials = {Material{0.5, {}}};
  Simulation<double> sim(cfg);
  sim.addImpulse(10, 9, 7, 1.0);
  for (int i = 0; i < 50; ++i) sim.step();
  const double early = sim.energy();
  for (int i = 0; i < 500; ++i) sim.step();
  const double late = sim.energy();
  EXPECT_LT(late, early * 0.2);
}

TEST(Simulation, HigherBetaAbsorbsFaster) {
  double residual[2];
  const double betas[2] = {0.05, 0.6};
  for (int k = 0; k < 2; ++k) {
    auto cfg = smallBox<double>(BoundaryModel::FusedFi);
    cfg.materials = {Material{betas[k], {}}};
    Simulation<double> sim(cfg);
    sim.addImpulse(10, 9, 7, 1.0);
    for (int i = 0; i < 400; ++i) sim.step();
    residual[k] = sim.energy();
  }
  EXPECT_LT(residual[1], residual[0]);
}

TEST(Simulation, NearRigidWallsRetainEnergy) {
  // beta = 0: cf = 0 and the fused kernel's boundary formula becomes the
  // lossless reflection; energy must persist (bounded, not decaying away).
  // Slightly below the Courant limit: exactly at lambda = 1/sqrt(3) the
  // lossless scheme admits weak (linear) growth modes at edges/corners,
  // which real runs suppress with absorbing boundaries.
  // The source must be zero-mean: under rigid (Neumann) walls the DC mode
  // obeys u^{n+1} = 2u^n - u^{n-1} and a monopole impulse drifts linearly —
  // a physical property of the scheme, not an instability.
  auto cfg = smallBox<double>(BoundaryModel::FusedFi);
  cfg.params.lambda = 0.55;
  cfg.materials = {Material{0.0, {}}};
  Simulation<double> sim(cfg);
  sim.addImpulse(10, 9, 7, 1.0);
  sim.addImpulse(11, 9, 7, -1.0);
  for (int i = 0; i < 50; ++i) sim.step();
  const double early = sim.energy();
  for (int i = 0; i < 1000; ++i) sim.step();
  const double late = sim.energy();
  EXPECT_GT(late, early * 0.2);
  EXPECT_LT(late, early * 5.0);
}

TEST(Simulation, FusedEqualsTwoKernelSplit) {
  // §II-C: separating volume and boundary handling must not change results.
  auto run = [](BoundaryModel model) {
    auto cfg = smallBox<double>(model);
    Simulation<double> sim(cfg);
    sim.addImpulse(10, 9, 7, 1.0);
    sim.addImpulse(5, 5, 5, -0.25);
    return sim.record(200, 4, 4, 4);
  };
  const auto fused = run(BoundaryModel::FusedFi);
  const auto split = run(BoundaryModel::FiSplit);
  ASSERT_EQ(fused.size(), split.size());
  // Mathematically identical; the fused form computes (cf-1)*prev where the
  // split form computes -prev + cf*prev, so equality holds to rounding.
  for (std::size_t i = 0; i < fused.size(); ++i) {
    ASSERT_NEAR(fused[i], split[i], 1e-9) << "step " << i;
  }
}

TEST(Simulation, FiMmWithOneMaterialEqualsFiSplit) {
  auto cfgA = smallBox<double>(BoundaryModel::FiSplit);
  auto cfgB = smallBox<double>(BoundaryModel::FiMm);
  Simulation<double> a(cfgA);
  Simulation<double> b(cfgB);
  a.addImpulse(10, 9, 7, 1.0);
  b.addImpulse(10, 9, 7, 1.0);
  const auto ra = a.record(150, 6, 6, 6);
  const auto rb = b.record(150, 6, 6, 6);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra[i], rb[i]) << "step " << i;
  }
}

TEST(Simulation, FdMmWithInertBranchesEqualsFiMm) {
  // Materials whose branches have BI = 0 contribute nothing: FD-MM must
  // collapse exactly onto FI-MM.
  auto mats = defaultMaterials(2, 0);
  for (auto& m : mats) {
    // One branch of "infinite" inertance: deriveFdCoeffs would give a tiny
    // but nonzero BI, so instead mark it inert by leaving branches empty
    // and padding (BI = 0 exactly).
    m.branches.clear();
  }
  auto cfgA = smallBox<double>(BoundaryModel::FiMm, 2);
  cfgA.materials = mats;
  auto cfgB = smallBox<double>(BoundaryModel::FdMm, 2, 2);
  cfgB.materials = mats;  // branches empty → all padding → inert
  Simulation<double> a(cfgA);
  Simulation<double> b(cfgB);
  a.addImpulse(10, 9, 7, 1.0);
  b.addImpulse(10, 9, 7, 1.0);
  const auto ra = a.record(150, 6, 6, 6);
  const auto rb = b.record(150, 6, 6, 6);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra[i], rb[i]) << "step " << i;
  }
}

TEST(Simulation, FdMmStableAndDissipativeOverManySteps) {
  auto cfg = smallBox<double>(BoundaryModel::FdMm, 3, 3);
  Simulation<double> sim(cfg);
  sim.addImpulse(10, 9, 7, 1.0);
  for (int i = 0; i < 100; ++i) sim.step();
  const double early = sim.energy();
  for (int i = 0; i < 2000; ++i) sim.step();
  EXPECT_TRUE(std::isfinite(sim.energy()));
  EXPECT_LT(sim.maxAbs(), 10.0);
  EXPECT_LT(sim.energy(), early);
}

TEST(Simulation, FdMmBranchesChangeTheResponse) {
  // Frequency-dependent materials must actually alter the impulse response
  // relative to FI-MM with the same betas.
  auto mats = defaultMaterials(1, 2);
  auto cfgA = smallBox<double>(BoundaryModel::FiMm, 1);
  cfgA.materials = mats;
  auto cfgB = smallBox<double>(BoundaryModel::FdMm, 1, 2);
  cfgB.materials = mats;
  Simulation<double> a(cfgA);
  Simulation<double> b(cfgB);
  a.addImpulse(10, 9, 7, 1.0);
  b.addImpulse(10, 9, 7, 1.0);
  const auto ra = a.record(200, 6, 6, 6);
  const auto rb = b.record(200, 6, 6, 6);
  double maxDiff = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    maxDiff = std::max(maxDiff, std::fabs(ra[i] - rb[i]));
  }
  EXPECT_GT(maxDiff, 1e-9);
}

TEST(Simulation, DomeRoomRunsStably) {
  typename Simulation<double>::Config cfg;
  cfg.room = Room{RoomShape::Dome, 26, 22, 18};
  cfg.model = BoundaryModel::FiMm;
  cfg.numMaterials = 3;
  Simulation<double> sim(cfg);
  sim.addImpulse(13, 11, 9, 1.0);
  for (int i = 0; i < 1000; ++i) sim.step();
  EXPECT_TRUE(std::isfinite(sim.energy()));
  EXPECT_LT(sim.maxAbs(), 10.0);
}

TEST(Simulation, FloatAndDoubleAgreeInitially) {
  Simulation<float> sf(smallBox<float>(BoundaryModel::FiMm));
  Simulation<double> sd(smallBox<double>(BoundaryModel::FiMm));
  sf.addImpulse(10, 9, 7, 1.0f);
  sd.addImpulse(10, 9, 7, 1.0);
  const auto rf = sf.record(50, 6, 6, 6);
  const auto rd = sd.record(50, 6, 6, 6);
  for (std::size_t i = 0; i < rf.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(rf[i]), rd[i], 1e-4) << "step " << i;
  }
}

TEST(Simulation, RecordCapturesImpulseArrival) {
  Simulation<double> sim(smallBox<double>(BoundaryModel::FusedFi));
  sim.addImpulse(10, 9, 7, 1.0);
  // Receiver 4 cells away: signal needs at least 4 steps to arrive
  // (the scheme's numerical wave speed is bounded by 1 cell/step).
  const auto rec = sim.record(30, 6, 9, 7);
  EXPECT_DOUBLE_EQ(rec[0], 0.0);
  EXPECT_DOUBLE_EQ(rec[2], 0.0);
  bool arrived = false;
  for (double v : rec) arrived = arrived || v != 0.0;
  EXPECT_TRUE(arrived);
}

TEST(Simulation, ImpulseOutsideRoomRejected) {
  Simulation<double> sim(smallBox<double>(BoundaryModel::FusedFi));
  EXPECT_THROW(sim.addImpulse(0, 0, 0, 1.0), Error);
}

TEST(Simulation, UnstableCourantRejected) {
  auto cfg = smallBox<double>(BoundaryModel::FusedFi);
  cfg.params.lambda = 0.8;  // > 1/sqrt(3)
  EXPECT_THROW(Simulation<double> sim(cfg), Error);
}

// A non-positive Courant number has no grid spacing (h = c*Ts/lambda);
// with lambda = 0 the scheme ran and recorded silence.
TEST(Simulation, NonPositiveCourantRejected) {
  auto cfg = smallBox<double>(BoundaryModel::FusedFi);
  for (const double lambda : {0.0, -0.3}) {
    cfg.params.lambda = lambda;
    EXPECT_THROW(Simulation<double> sim(cfg), Error) << lambda;
  }
}

// The stepper against the listing oracle (listing_oracle.hpp): its
// interior-run volume and topology-class boundary kernels, scheduled as a
// task graph, must reproduce the listings' lookup volume and flat boundary
// kernels bit-for-bit. Together with
// StepGraph.BitIdenticalToSerialAcrossModelsShapesThreads (box and L-shape)
// these cover 4 models x {box, L-shape, dome, cylinder} x {1, 3, 8}
// threads, the tileZ and launch-plan axes, and both precisions.

template <typename T>
typename Simulation<T>::Config shapedConfig(RoomShape shape,
                                            BoundaryModel model, int threads) {
  const bool fd = model == BoundaryModel::FdMm;
  const bool mm = fd || model == BoundaryModel::FiMm;
  typename Simulation<T>::Config cfg;
  cfg.room = Room{shape, 20, 17, 13};
  cfg.model = model;
  cfg.numMaterials = mm ? 3 : 1;
  cfg.numBranches = fd ? 2 : 0;
  cfg.params.threads = threads;
  return cfg;
}

const std::vector<Impulse> kShapedImpulses = {{10, 8, 6, 1.0},
                                              {5, 5, 5, -0.25}};
const std::vector<Receiver> kShapedReceivers = {{6, 6, 6}, {12, 5, 7}};

std::string caseName(RoomShape shape, BoundaryModel model, int threads) {
  return std::string(shapeName(shape)) + " " + modelName(model) +
         " threads=" + std::to_string(threads);
}

TEST(Simulation, RunsPathBitIdenticalToLookupAllModelsAllShapes) {
  // One thread: the graph runs each phase as one whole-grid task, checking
  // the run plan and the class launches on every shape's fragmentation.
  for (auto shape : {RoomShape::Box, RoomShape::Dome, RoomShape::LShape,
                     RoomShape::Cylinder}) {
    for (auto model : {BoundaryModel::FusedFi, BoundaryModel::FiSplit,
                       BoundaryModel::FiMm, BoundaryModel::FdMm}) {
      expectStepperMatchesOracle<double>(
          shapedConfig<double>(shape, model, 1), kShapedImpulses,
          kShapedReceivers, 100, caseName(shape, model, 1));
    }
  }
}

TEST(Simulation, RunsPathBitIdenticalToLookupFloat) {
  for (int threads : {1, 3}) {
    expectStepperMatchesOracle<float>(
        shapedConfig<float>(RoomShape::Dome, BoundaryModel::FdMm, threads),
        kShapedImpulses, kShapedReceivers, 100,
        caseName(RoomShape::Dome, BoundaryModel::FdMm, threads));
  }
}

TEST(Simulation, ParallelStepperBitIdenticalToSerialAllModels) {
  // Dome and cylinder fragment both the interior runs and the boundary
  // classes. The serial side is the listings' whole-grid step loop.
  for (auto shape : {RoomShape::Dome, RoomShape::Cylinder}) {
    for (auto model : {BoundaryModel::FusedFi, BoundaryModel::FiSplit,
                       BoundaryModel::FiMm, BoundaryModel::FdMm}) {
      for (int threads : {1, 3, 8}) {
        expectStepperMatchesOracle<double>(
            shapedConfig<double>(shape, model, threads), kShapedImpulses,
            kShapedReceivers, 80, caseName(shape, model, threads));
      }
    }
  }
}

TEST(Simulation, ParallelStepperBitIdenticalAcrossTileSizes) {
  // tileZ sizes the graph's slabs (on pools with workers), and with them
  // every task's run and boundary-slot subranges; no value may change a bit.
  for (auto model : {BoundaryModel::FusedFi, BoundaryModel::FiMm}) {
    for (int threads : {2, 4}) {
      for (int tileZ : {1, 2, 7, 64}) {
        auto cfg = shapedConfig<double>(RoomShape::LShape, model, threads);
        cfg.params.tileZ = tileZ;
        expectStepperMatchesOracle<double>(
            cfg, kShapedImpulses, kShapedReceivers, 60,
            caseName(RoomShape::LShape, model, threads) +
                " tileZ=" + std::to_string(tileZ));
      }
    }
  }
}

TEST(Simulation, ParallelStepperBitIdenticalToSerialFloat) {
  for (auto model : {BoundaryModel::FusedFi, BoundaryModel::FiSplit,
                     BoundaryModel::FiMm, BoundaryModel::FdMm}) {
    for (int threads : {1, 4}) {
      auto cfg = shapedConfig<float>(RoomShape::Box, model, threads);
      cfg.params.tileZ = 2;
      expectStepperMatchesOracle<float>(
          cfg, kShapedImpulses, kShapedReceivers, 120,
          caseName(RoomShape::Box, model, threads));
    }
  }
}

TEST(Simulation, PureFissionBitIdenticalToFlat) {
  // minPoints = 0 gives one launch per non-empty class (no coalescing, no
  // fused fallback); the default coalesces small classes. Both must match
  // the flat listing kernels.
  for (auto model : {BoundaryModel::FiSplit, BoundaryModel::FiMm}) {
    for (const std::int32_t minPoints : {kBoundaryFissionMinPoints, 0}) {
      for (int threads : {1, 3}) {
        auto cfg = shapedConfig<double>(RoomShape::Dome, model, threads);
        cfg.params.boundaryFissionMinPoints = minPoints;
        expectStepperMatchesOracle<double>(
            cfg, kShapedImpulses, kShapedReceivers, 80,
            caseName(RoomShape::Dome, model, threads) +
                " minPoints=" + std::to_string(minPoints));
      }
    }
  }
}

TEST(Simulation, FdMmBranchStateKeepsFullSetStrideUnderEveryLaunchPlan) {
  // The class kernels index g1/v1/v2 through origPos with the full-set
  // stride (ci = b*numB + i), so the branch state — not just the pressure
  // field — must equal the flat Listing-4 kernel's under every launch plan.
  // The service checkpoint writer serializes these arrays raw; a per-class
  // or per-launch re-stride would silently corrupt restores.
  for (const std::int32_t minPoints : {kBoundaryFissionMinPoints, 0}) {
    for (int threads : {1, 3}) {
      Simulation<double>::Config cfg;
      cfg.room = Room{RoomShape::LShape, 20, 17, 13};
      cfg.model = BoundaryModel::FdMm;
      cfg.numMaterials = 3;
      cfg.numBranches = 3;
      cfg.params.threads = threads;
      cfg.params.boundaryFissionMinPoints = minPoints;
      expectStepperMatchesOracle<double>(
          cfg, {{10, 8, 6, 1.0}}, kShapedReceivers, 31,
          "minPoints=" + std::to_string(minPoints) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(Simulation, ThreadsUsedReflectsConfig) {
  auto cfg = smallBox<double>(BoundaryModel::FiMm);
  cfg.params.threads = 1;
  EXPECT_EQ(Simulation<double>(cfg).threadsUsed(), 1u);
  cfg.params.threads = 3;
  EXPECT_EQ(Simulation<double>(cfg).threadsUsed(), 3u);
  cfg.params.threads = 0;  // shared pool, at least one thread
  EXPECT_GE(Simulation<double>(cfg).threadsUsed(), 1u);
}

TEST(Simulation, InvalidExecParamsRejected) {
  auto cfg = smallBox<double>(BoundaryModel::FiMm);
  cfg.params.threads = -1;
  EXPECT_THROW(Simulation<double> sim(cfg), Error);
  cfg.params.threads = 1;
  cfg.params.tileZ = 0;
  EXPECT_THROW(Simulation<double> sim(cfg), Error);
}

TEST(Simulation, ProfilerRecordsVolumeAndBoundarySplit) {
  auto cfg = smallBox<double>(BoundaryModel::FiMm);
  Simulation<double> sim(cfg);
  sim.addImpulse(10, 9, 7, 1.0);
  sim.step();  // not yet profiled
  EXPECT_EQ(sim.profile().steps(), 0u);
  sim.enableProfiling();
  for (int i = 0; i < 25; ++i) sim.step();
  const StepProfiler& prof = sim.profile();
  EXPECT_EQ(prof.steps(), 25u);
  EXPECT_GT(prof.volumeStats().median, 0.0);
  EXPECT_GT(prof.boundaryStats().median, 0.0);
  const double frac = prof.boundaryFraction();
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 1.0);
  EXPECT_GT(prof.cellsPerSecond(), 0.0);
  EXPECT_FALSE(prof.report("FiMm").empty());
  sim.profile().reset();
  EXPECT_EQ(sim.profile().steps(), 0u);
}

TEST(Simulation, ProfilerFusedModelHasNoBoundaryPhase) {
  auto cfg = smallBox<double>(BoundaryModel::FusedFi);
  Simulation<double> sim(cfg);
  sim.addImpulse(10, 9, 7, 1.0);
  sim.enableProfiling();
  for (int i = 0; i < 10; ++i) sim.step();
  EXPECT_EQ(sim.profile().steps(), 10u);
  EXPECT_GT(sim.profile().volumeStats().median, 0.0);
  EXPECT_DOUBLE_EQ(sim.profile().boundaryFraction(), 0.0);
}

TEST(Simulation, ModelNames) {
  EXPECT_STREQ(modelName(BoundaryModel::FdMm), "FD-MM");
  EXPECT_STREQ(modelName(BoundaryModel::FiMm), "FI-MM");
}

TEST(Simulation, MultiReceiverRecordMatchesSingleRunsBitwise) {
  // One multi-receiver pass must equal N independent single-receiver runs
  // exactly: sampling never perturbs the field. This is what lets the RIR
  // job service record every receiver of a job in one simulation.
  const std::vector<Receiver> receivers = {
      {5, 5, 5}, {16, 12, 7}, {10, 9, 7}};
  for (auto model : {BoundaryModel::FusedFi, BoundaryModel::FiMm,
                     BoundaryModel::FdMm}) {
    const int numMaterials =
        model == BoundaryModel::FusedFi ? 1 : 2;
    const int numBranches = model == BoundaryModel::FdMm ? 3 : 0;
    const auto cfg = smallBox<double>(model, numMaterials, numBranches);

    Simulation<double> multi(cfg);
    multi.addImpulse(10, 9, 7, 1.0);
    const auto traces = multi.record(40, receivers);
    ASSERT_EQ(traces.size(), receivers.size());

    for (std::size_t r = 0; r < receivers.size(); ++r) {
      Simulation<double> single(cfg);
      single.addImpulse(10, 9, 7, 1.0);
      const auto expected =
          single.record(40, receivers[r].x, receivers[r].y, receivers[r].z);
      ASSERT_EQ(traces[r].size(), expected.size());
      for (std::size_t s = 0; s < expected.size(); ++s) {
        ASSERT_EQ(traces[r][s], expected[s])
            << modelName(model) << ": receiver " << r << " step " << s;
      }
    }
  }
}

TEST(Simulation, MultiReceiverRecordRejectsOutsideReceiver) {
  Simulation<double> sim(smallBox<double>(BoundaryModel::FiMm));
  EXPECT_THROW(sim.record(5, {{0, 0, 0}}), Error);
  EXPECT_THROW(sim.record(5, std::vector<Receiver>{}), Error);
}

TEST(Simulation, ExternalSharedPoolSteppingBitIdentical) {
  // Two simulations sharing one externally owned pool (the job-service
  // composition) step bit-identically to an owned-pool simulation.
  ThreadPool shared(2);
  auto cfg = smallBox<double>(BoundaryModel::FiMm, 2);
  cfg.params.threads = 2;
  cfg.params.tileZ = 2;
  Simulation<double> owned(cfg);

  auto cfgShared = cfg;
  cfgShared.pool = &shared;
  cfgShared.params.threads = 7;  // ignored: the external pool wins
  Simulation<double> a(cfgShared);
  Simulation<double> b(cfgShared);
  EXPECT_EQ(a.threadsUsed(), shared.threadCount());

  owned.addImpulse(10, 9, 7, 1.0);
  a.addImpulse(10, 9, 7, 1.0);
  b.addImpulse(10, 9, 7, 1.0);
  const auto ro = owned.record(30, 5, 5, 5);
  const auto ra = a.record(30, 5, 5, 5);
  const auto rb = b.record(30, 5, 5, 5);
  for (std::size_t s = 0; s < ro.size(); ++s) {
    ASSERT_EQ(ra[s], ro[s]) << "step " << s;
    ASSERT_EQ(rb[s], ro[s]) << "step " << s;
  }
}

}  // namespace
}  // namespace lifta::acoustics
