// Task-graph stepper validation: bit-identity with the listings' whole-grid
// step loop (listing_oracle.hpp) across every boundary model, room shape
// and thread count; scheduling stress with randomized per-task delays (run
// under TSan in CI); cancellation at a clean step boundary with bit-exact
// resume; profiler attribution against the wall clock; and a
// lintTaskAccesses replay proving the derived edge set orders every buffer
// conflict in the plan.
#include "acoustics/step_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "acoustics/simulation.hpp"
#include "analysis/task_deps.hpp"
#include "common/stats.hpp"
#include "listing_oracle.hpp"

namespace lifta::acoustics {
namespace {

Room makeRoom(RoomShape shape) {
  // Small but non-trivial: several z-slabs at tileZ=3, a few thousand
  // boundary points, and (for LShape) a non-convex interior.
  return Room{shape, 20, 16, 14};
}

std::vector<Receiver> roomReceivers(const Room& room) {
  // Both points avoid the LShape's removed upper-x/upper-y quadrant.
  return {{room.nx / 4, room.ny / 4, room.nz / 2},
          {room.nx / 2, room.ny / 4, room.nz / 2 - 1}};
}

Simulation<double>::Config makeConfig(RoomShape shape, BoundaryModel model,
                                      int threads) {
  Simulation<double>::Config cfg;
  cfg.room = makeRoom(shape);
  cfg.model = model;
  cfg.numMaterials = 3;
  cfg.numBranches = model == BoundaryModel::FdMm ? 3 : 0;
  cfg.params.threads = threads;
  cfg.params.tileZ = 3;
  return cfg;
}

Impulse roomImpulse(const Room& room) {
  return {room.nx / 4, room.ny / 4, room.nz / 2, 1.0};
}

/// The oracle after `steps` steps from the same impulse as `cfg`'s sims.
ListingOracle<double> oracleAfter(const Simulation<double>::Config& cfg,
                                  int steps) {
  ListingOracle<double> oracle(cfg);
  const Impulse i = roomImpulse(cfg.room);
  oracle.addImpulse(i.x, i.y, i.z, i.amplitude);
  oracle.run(steps);
  return oracle;
}

constexpr BoundaryModel kModels[] = {BoundaryModel::FusedFi,
                                     BoundaryModel::FiSplit,
                                     BoundaryModel::FiMm, BoundaryModel::FdMm};

// The bit-identity matrix: 4 boundary models x {box, L-shape} x {1, 3, 8}
// threads against the listings' serial step loop (dome and cylinder run in
// Simulation.ParallelStepperBitIdenticalToSerialAllModels). threads=1 runs
// the same graph serially on a worker-less pool. An odd step count lands
// the FD-MM velocity swap on the non-trivial parity.
TEST(StepGraph, BitIdenticalToSerialAcrossModelsShapesThreads) {
  const int steps = 25;
  for (auto shape : {RoomShape::Box, RoomShape::LShape}) {
    for (auto model : kModels) {
      for (int threads : {1, 3, 8}) {
        const auto cfg = makeConfig(shape, model, threads);
        expectStepperMatchesOracle<double>(
            cfg, {roomImpulse(cfg.room)}, roomReceivers(cfg.room), steps,
            std::string(shapeName(shape)) + "/" + modelName(model) + "/t" +
                std::to_string(threads));
      }
    }
  }
}

// Randomized per-task delays shuffle the schedule (steals, pipeline depth,
// completion order) without changing the result. CI runs this binary under
// ThreadSanitizer, so the hook also widens race windows for TSan.
TEST(StepGraph, RandomTaskDelaysPreserveBitIdentity) {
  const int steps = 18;
  const auto cfg = makeConfig(RoomShape::LShape, BoundaryModel::FdMm, 8);
  const auto receivers = roomReceivers(cfg.room);
  ListingOracle<double> oracle(cfg);
  const Impulse i = roomImpulse(cfg.room);
  oracle.addImpulse(i.x, i.y, i.z, i.amplitude);
  const auto want = oracle.record(steps, receivers);
  for (int trial = 0; trial < 3; ++trial) {
    Simulation<double> sim(cfg);
    sim.addImpulse(i.x, i.y, i.z, i.amplitude);
    std::atomic<std::uint32_t> salt{static_cast<std::uint32_t>(trial) * 7919};
    sim.testSetTaskHook([&salt] {
      // Cheap thread-safe jitter: 0..31 microseconds, different every call.
      std::uint32_t s = salt.fetch_add(0x9e3779b9u);
      s ^= s >> 16;
      if ((s & 3u) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(s % 32));
      } else if ((s & 3u) == 1) {
        std::this_thread::yield();
      }
    });
    const std::string what = "jitter trial " + std::to_string(trial);
    expectTracesMatch(sim.record(steps, receivers), want, what);
    expectStateMatches(sim, oracle, what);
  }
}

// Cancellation must land on a clean step boundary — in particular the
// FD-MM branch state (updated in place) must correspond exactly to the
// reported step count, so that resuming completes bit-identically.
TEST(StepGraph, CancelLandsOnStepBoundaryAndResumesBitExact) {
  const int steps = 60;
  const auto cfg = makeConfig(RoomShape::Box, BoundaryModel::FdMm, 4);
  const auto want = oracleAfter(cfg, steps);

  Simulation<double> sim(cfg);
  const Impulse i = roomImpulse(cfg.room);
  sim.addImpulse(i.x, i.y, i.z, i.amplitude);
  std::atomic<bool> cancel{false};
  std::atomic<int> bodies{0};
  sim.testSetTaskHook([&] {
    if (bodies.fetch_add(1) == 40) cancel.store(true);
  });
  const int did = sim.run(steps, &cancel);
  EXPECT_GT(did, 0);
  EXPECT_LT(did, steps) << "cancellation did not take effect";
  EXPECT_EQ(sim.stepsTaken(), did);
  expectStateMatches(sim, oracleAfter(cfg, did), "at the cancel point");
  sim.testSetTaskHook({});
  const int rest = sim.run(steps - did);
  EXPECT_EQ(rest, steps - did);
  expectStateMatches(sim, want, "cancel+resume");
}

// A pre-set cancel flag on a fresh run must complete zero-or-more full
// steps and report them truthfully.
TEST(StepGraph, PreCancelledRunReportsCompletedPrefix) {
  auto cfg = makeConfig(RoomShape::Box, BoundaryModel::FiMm, 4);
  Simulation<double> sim(cfg);
  sim.addImpulse(cfg.room.nx / 4, cfg.room.ny / 4, cfg.room.nz / 2, 1.0);
  std::atomic<bool> cancel{true};
  const int did = sim.run(50, &cancel);
  EXPECT_GE(did, 0);
  EXPECT_LT(did, 50);
  EXPECT_EQ(sim.stepsTaken(), did);
}

// Fig. 2's boundary fraction must stay truthful when steps pipeline. At one
// thread every task runs on the calling thread, so the test's own clocks
// are the reference: the profiler's per-step wall times must add up to the
// run's wall-clock time, and the per-step volume + boundary CPU time must
// fit inside those wall times while accounting for nearly all the CPU time
// the run used (the rest is graph dispatch). Sums, not single steps: under
// a loaded `ctest -j` the thread is preempted, which stretches wall time
// without adding CPU time. The pipelined 4-thread run must then attribute
// the same work share.
TEST(StepGraph, ProfilerAttributionMatchesSerialWithinTolerance) {
  const int steps = 60;
  auto serialCfg = makeConfig(RoomShape::Box, BoundaryModel::FdMm, 1);
  serialCfg.room = Room{RoomShape::Box, 56, 44, 36};
  Simulation<double> serial(serialCfg);
  serial.addImpulse(28, 22, 18, 1.0);
  serial.enableProfiling();
  const Timer wall;
  const std::uint64_t cpu0 = threadCpuTimeNs();
  serial.run(steps);
  const double runCpuMs = static_cast<double>(threadCpuTimeNs() - cpu0) / 1e6;
  const double runWallMs = wall.milliseconds();
  const StepProfiler& prof = serial.profile();
  ASSERT_EQ(prof.steps(), static_cast<std::size_t>(steps));
  double attributedMs = 0.0, stepWallMs = 0.0;
  for (std::size_t k = 0; k < prof.steps(); ++k) {
    attributedMs += prof.volumeMs()[k] + prof.boundaryMs()[k];
    stepWallMs += prof.stepWallMs()[k];
  }
  EXPECT_LE(stepWallMs, runWallMs * 1.01 + 0.01);
  EXPECT_GE(stepWallMs, runWallMs * 0.5);
  EXPECT_LE(attributedMs, stepWallMs * 1.01 + 0.01);
  // A dropped or misattributed phase would leave ~half the CPU unexplained.
  EXPECT_GE(attributedMs, runCpuMs * 0.8);
  const double serialFrac = prof.boundaryFraction();
  EXPECT_GT(serialFrac, 0.0);
  EXPECT_LT(serialFrac, 1.0);

  auto graphCfg = serialCfg;
  graphCfg.params.threads = 4;
  Simulation<double> graph(graphCfg);
  graph.addImpulse(28, 22, 18, 1.0);
  graph.enableProfiling();
  graph.run(steps);
  ASSERT_EQ(graph.profile().steps(), static_cast<std::size_t>(steps));
  // Both are fractions of the same two phases' work; scheduling noise
  // allows some drift but not a misattribution.
  EXPECT_NEAR(graph.profile().boundaryFraction(), serialFrac, 0.25);
}

// Replay every derived plan through the host-lint ordering check: the
// emitted edges must order every overlapping read/write pair, for every
// model and a batch long enough to exercise the 3-buffer rotation and the
// sampling WAR edges.
TEST(StepGraph, DerivedEdgesPassAccessLint) {
  const Room room = makeRoom(RoomShape::LShape);
  const auto grid = voxelizeCached(room, 3);
  const std::vector<std::size_t> recv = {
      room.index(room.nx / 4, room.ny / 4, room.nz / 2)};
  for (auto model : kModels) {
    const int branches = model == BoundaryModel::FdMm ? 3 : 0;
    const auto spec = StepGraphSpec::build(*grid, model, 3, branches, 7, recv);
    ASSERT_GT(spec.tasks.size(), 0u);
    for (const auto& e : spec.edges) EXPECT_LT(e.first, e.second);
    const auto report = analysis::lintTaskAccesses(
        modelName(model), spec.accesses, spec.edges,
        static_cast<std::uint32_t>(spec.tasks.size()));
    EXPECT_EQ(report.count(analysis::Severity::Error), 0u)
        << modelName(model) << ":\n"
        << report.toText();
  }
}

// The plan must actually pipeline: some step-t+1 volume task must NOT be a
// (transitive) successor of every step-t task — i.e. the edge count is far
// below the all-pairs barrier equivalent. Cheap structural proxy: no task
// of step t+1 depends on ALL boundary tasks of step t.
TEST(StepGraph, PlanAllowsCrossStepOverlap) {
  const Room room = makeRoom(RoomShape::Box);
  const auto grid = voxelizeCached(room, 3);
  const auto spec =
      StepGraphSpec::build(*grid, BoundaryModel::FiMm, 3, 0, 2, {});
  // Count tasks per (step, phase).
  std::size_t step0Boundary = 0;
  for (const auto& t : spec.tasks) {
    if (t.step == 0 && t.phase == StepTaskSpec::Phase::Boundary)
      ++step0Boundary;
  }
  ASSERT_GT(step0Boundary, 1u) << "need multiple boundary tasks to pipeline";
  // Direct-predecessor count of each step-1 volume task must be less than
  // the full step-0 task population (a barrier would imply all of them).
  std::size_t step0Tasks = 0;
  for (const auto& t : spec.tasks)
    if (t.step == 0) ++step0Tasks;
  for (std::uint32_t ti = 0; ti < spec.tasks.size(); ++ti) {
    const auto& t = spec.tasks[ti];
    if (t.step != 1 || t.phase != StepTaskSpec::Phase::Volume) continue;
    std::size_t preds = 0;
    for (const auto& e : spec.edges)
      if (e.second == ti) ++preds;
    EXPECT_LT(preds, step0Tasks)
        << "a step-1 volume task waits on every step-0 task (barrier)";
  }
}

}  // namespace
}  // namespace lifta::acoustics
