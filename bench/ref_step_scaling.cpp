// Thread-scaling of the reference ("hand-written C") stepper: the task-graph
// stepper at threads=1 (a worker-less pool running the graph serially) vs
// increasing thread counts, measured from the stepper's own StepProfiler
// instrumentation — plus, at one thread, the stepper's kernels against the
// listings' whole-grid kernels they replace: interior-run volume vs the
// per-cell nbrs-lookup scan, and topology-class boundary launches vs the
// flat fused scatter. Both sides of each kernel comparison are timed with
// the same thread-CPU timer over the same grid. Every configuration is
// bit-identical to the listing kernels (disjoint write partitions,
// unchanged per-cell arithmetic), so this isolates the scheduling and
// instruction-stream cost/benefit. Results and the explicit perf gates are
// also written machine-readably to BENCH_refstep.json in the working
// directory.
#include <cstdio>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "acoustics/materials.hpp"
#include "acoustics/simulation.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "harness/bench_common.hpp"
#include "harness/table.hpp"

using namespace lifta;
using namespace lifta::harness;

namespace {

/// Median per-phase thread-CPU ms of a serial step.
struct PhaseTiming {
  double volumeMs = 0.0;
  double boundaryMs = 0.0;
  double stepMs() const { return volumeMs + boundaryMs; }
  double boundaryShare() const {
    return stepMs() > 0.0 ? boundaryMs / stepMs() : 0.0;
  }
};

/// Median whole-step wall ms of the stepper at `threads`, from its
/// StepProfiler.
double medianStepMs(const acoustics::Room& room, acoustics::BoundaryModel m,
                    int threads, const BenchOptions& opt) {
  acoustics::Simulation<double>::Config cfg;
  cfg.room = room;
  cfg.model = m;
  cfg.numMaterials = 3;
  cfg.numBranches = m == acoustics::BoundaryModel::FdMm ? opt.branches : 0;
  cfg.params.threads = threads;
  acoustics::Simulation<double> sim(cfg);
  sim.addImpulse(room.nx / 2, room.ny / 2, room.nz / 2, 1.0);
  // Batch stepping (not a step() loop): the task-graph stepper only
  // pipelines across steps inside a run() batch. The profiler spreads each
  // batch's wall time evenly over its steps, so opt.iters samples take
  // opt.iters batches' worth of steps; a median over a handful of steps
  // would be the average of one or two batches.
  constexpr int kStepsPerIter = 16;
  sim.run(opt.warmup);
  sim.enableProfiling();
  sim.run(opt.iters * kStepsPerIter);
  return sim.profile().stepStats().median;
}

const char* jsonModelKey(acoustics::BoundaryModel m) {
  switch (m) {
    case acoustics::BoundaryModel::FusedFi: return "fi-fused";
    case acoustics::BoundaryModel::FiSplit: return "fi-split";
    case acoustics::BoundaryModel::FiMm: return "fi-mm";
    case acoustics::BoundaryModel::FdMm: return "fd-mm";
  }
  return "?";
}

/// A serial step loop over the whole grid of a box room — volume kernel,
/// boundary kernel, buffer rotation, from a centre impulse as the stepper
/// starts — timing each phase with one timer, the thread-CPU clock the
/// stepper's profiler uses (so preemption by other processes does not
/// count). Each phase runs either the stepper's kernels (interior runs,
/// launch-plan class kernels) or the listings' kernel for that phase (the
/// per-cell nbrs-lookup volume scan, the flat boundary scatter) — what the
/// stepper's former Lookup and Flat paths ran at one thread, each with the
/// other phase left on the stepper's kernels, so a phase is timed in the
/// cache state the real step leaves it (the interior-run volume pass never
/// touches the nbrs array the flat scatter gathers from).
class SerialLoop {
public:
  SerialLoop(const acoustics::Room& room, acoustics::BoundaryModel model,
             bool lookupVolume, bool flatBoundary, int branches)
      : grid_(acoustics::voxelizeCached(room, 3)),
        model_(model),
        lookupVolume_(lookupVolume),
        flatBoundary_(flatBoundary),
        branches_(model == acoustics::BoundaryModel::FdMm ? branches : 0) {
    const std::size_t cells = grid_->cells();
    prev_.assign(cells, 0.0);
    curr_.assign(cells, 0.0);
    next_.assign(cells, 0.0);
    curr_[room.index(room.nx / 2, room.ny / 2, room.nz / 2)] = 1.0;
    const std::size_t stateLen =
        static_cast<std::size_t>(branches_) * grid_->boundaryPoints();
    g1_.assign(stateLen, 0.0);
    v1_.assign(stateLen, 0.0);
    v2_.assign(stateLen, 0.0);
    const auto mats = acoustics::defaultMaterials(3, branches_);
    beta_ = acoustics::betaTable(mats);
    fd_ = acoustics::deriveFdCoeffs(mats, branches_,
                                    acoustics::SimParams{}.Ts());
    launches_ = acoustics::planBoundaryLaunches(
        grid_->boundaryClasses, acoustics::kBoundaryFissionMinPoints);
  }

  /// Median per-phase ms over opt.iters steps after opt.warmup.
  PhaseTiming time(const BenchOptions& opt) {
    std::vector<double> volume, boundary;
    for (int it = 0; it < opt.warmup + opt.iters; ++it) {
      const std::uint64_t t0 = threadCpuTimeNs();
      lookupVolume_ ? lookupVolume() : runsVolume();
      const std::uint64_t t1 = threadCpuTimeNs();
      if (model_ != acoustics::BoundaryModel::FusedFi) {
        flatBoundary_ ? flatBoundary() : classBoundary();
      }
      const std::uint64_t t2 = threadCpuTimeNs();
      const double volumeMs = static_cast<double>(t1 - t0) / 1e6;
      const double boundaryMs = static_cast<double>(t2 - t1) / 1e6;
      std::swap(prev_, curr_);
      std::swap(curr_, next_);
      std::swap(v1_, v2_);
      if (it >= opt.warmup) {
        volume.push_back(volumeMs);
        boundary.push_back(boundaryMs);
      }
    }
    return {median(std::move(volume)), median(std::move(boundary))};
  }

private:
  std::int64_t numB() const {
    return static_cast<std::int64_t>(grid_->boundaryPoints());
  }
  bool fused() const { return model_ == acoustics::BoundaryModel::FusedFi; }
  bool fdmm() const { return model_ == acoustics::BoundaryModel::FdMm; }

  void lookupVolume() {
    const auto& g = *grid_;
    if (fused()) {
      acoustics::refFusedFiLookup(g.nbrs.data(), prev_.data(), curr_.data(),
                                  next_.data(), g.nx, g.ny, g.nz, kL, kL2,
                                  beta_[0]);
    } else {
      acoustics::refVolume(g.nbrs.data(), prev_.data(), curr_.data(),
                           next_.data(), g.nx, g.ny, g.nz, kL2);
    }
  }
  void runsVolume() {
    const auto& g = *grid_;
    const auto& plan = g.interiorRuns;
    if (fused()) {
      acoustics::refFusedFiRuns(plan.runBegin.data(), plan.runLen.data(),
                                plan.runs(), g.boundaryIndices.data(),
                                g.boundaryNbr.data(), numB(), prev_.data(),
                                curr_.data(), next_.data(), g.nx, g.ny, kL,
                                kL2, beta_[0]);
    } else {
      acoustics::refVolumeRuns(plan.runBegin.data(), plan.runLen.data(),
                               plan.runs(), g.boundaryIndices.data(),
                               g.boundaryNbr.data(), numB(), prev_.data(),
                               curr_.data(), next_.data(), g.nx, g.ny, kL2);
    }
  }
  void flatBoundary() {
    const auto& g = *grid_;
    if (fdmm()) {
      acoustics::refFdMmBoundary(
          g.boundaryIndices.data(), g.nbrs.data(), g.material.data(),
          beta_.data(), fd_.BI.data(), fd_.D.data(), fd_.DI.data(),
          fd_.F.data(), branches_, prev_.data(), next_.data(), g1_.data(),
          v1_.data(), v2_.data(), numB(), kL);
    } else {
      acoustics::refFiMmBoundary(g.boundaryIndices.data(), g.nbrs.data(),
                                 g.material.data(), beta_.data(),
                                 prev_.data(), next_.data(), numB(), kL);
    }
  }
  void classBoundary() {
    const auto& cp = grid_->boundaryClasses;
    for (const auto& ln : launches_) {
      if (fdmm() && ln.fixedNbr >= 0) {
        acoustics::refFdMmClassRange(
            cp.cellSorted.data(), cp.matSorted.data(), cp.order.data(),
            ln.fixedNbr, beta_.data(), fd_.BI.data(), fd_.D.data(),
            fd_.DI.data(), fd_.F.data(), branches_, prev_.data(),
            next_.data(), g1_.data(), v1_.data(), v2_.data(), numB(),
            ln.begin, ln.end, kL);
      } else if (fdmm()) {
        acoustics::refFdMmMixedRange(
            cp.cellSorted.data(), cp.nbrSorted.data(), cp.matSorted.data(),
            cp.order.data(), beta_.data(), fd_.BI.data(), fd_.D.data(),
            fd_.DI.data(), fd_.F.data(), branches_, prev_.data(),
            next_.data(), g1_.data(), v1_.data(), v2_.data(), numB(),
            ln.begin, ln.end, kL);
      } else if (ln.fixedNbr >= 0) {
        acoustics::refFiMmClassRange(cp.cellSorted.data(),
                                     cp.matSorted.data(), ln.fixedNbr,
                                     beta_.data(), prev_.data(),
                                     next_.data(), ln.begin, ln.end, kL);
      } else {
        acoustics::refFiMmMixedRange(
            cp.cellSorted.data(), cp.nbrSorted.data(), cp.matSorted.data(),
            beta_.data(), prev_.data(), next_.data(), ln.begin, ln.end, kL);
      }
    }
  }

  const double kL = acoustics::SimParams{}.l();
  const double kL2 = acoustics::SimParams{}.l2();
  std::shared_ptr<const acoustics::RoomGrid> grid_;
  acoustics::BoundaryModel model_;
  bool lookupVolume_;
  bool flatBoundary_;
  int branches_;
  std::vector<double> prev_, curr_, next_, g1_, v1_, v2_;
  std::vector<double> beta_;
  acoustics::FdCoeffs fd_;
  std::vector<acoustics::BoundaryLaunch> launches_;
};

/// One model's serial loops: the stepper's kernels, and the same loop with
/// the volume phase (`lookup`) or the boundary phase (`flat`) swapped for
/// the listing kernel.
struct PathRow {
  acoustics::BoundaryModel model;
  PhaseTiming stepper, lookup, flat;
};

struct ScalingRow {
  acoustics::BoundaryModel model;
  int threads;
  double stepMs, speedup;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::fromArgs(argc, argv);
  printBenchBanner("Reference stepper thread scaling (task graph)", opt);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> threadCounts = {1, 2, 4};
  if (hw > 4) threadCounts.push_back(static_cast<int>(hw));
  std::printf("hardware concurrency: %u\n\n", hw);

  // Largest bench room ("602"): the paper-scale shape at the default 1/8
  // linear scale, or the true Table II size with --full.
  const auto rooms = benchRooms(acoustics::RoomShape::Box, opt.full);
  const auto& sized = rooms.front();

  Table table({"Algorithm", "Size", "Threads", "Step ms", "Speedup"});
  std::vector<ScalingRow> scalingRows;
  double fiGraphSpeedup4 = 0.0, fdmmGraphSpeedup4 = 0.0;
  for (auto model : {acoustics::BoundaryModel::FiMm,
                     acoustics::BoundaryModel::FdMm}) {
    // threadCounts starts at 1: the serial baseline of every speedup.
    double serialMs = 0.0;
    for (int t : threadCounts) {
      const double ms = medianStepMs(sized.room, model, t, opt);
      if (t == 1) serialMs = ms;
      const double speedup = ms > 0.0 ? serialMs / ms : 0.0;
      table.addRow({acoustics::modelName(model), sized.label,
                    std::to_string(t), strformat("%.4f", ms),
                    strformat("%.2fx", speedup)});
      scalingRows.push_back({model, t, ms, speedup});
      if (t == 4) {
        (model == acoustics::BoundaryModel::FiMm ? fiGraphSpeedup4
                                                 : fdmmGraphSpeedup4) =
            speedup;
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "4-thread speedup: FI %.2fx (target 2.0x), FD-MM %.2fx (target 1.3x)\n"
      "— meaningful only with >=4 physical cores (hw=%u). All partitions are\n"
      "disjoint and conflicts edge-ordered, so every thread count is\n"
      "bit-identical to the listing kernels.\n\n",
      fiGraphSpeedup4, fdmmGraphSpeedup4, hw);

  // Kernel comparisons at one thread, each inside a serial step loop so
  // every phase runs in a real step's cache state. Volume: the interior-run
  // plan (branchless SIMD inner loops over precomputed maximal runs + a
  // small residual sweep) vs the listings' per-cell nbrs-lookup scan.
  // Boundary (FI-MM and FD-MM, the models whose boundary phase carries
  // material / branch state): the topology-class launches (sorted
  // class-major layout, branch-free per-class kernels) vs the listings'
  // flat fused scatter with its per-point grid-wide nbrs gather.
  const auto grid = acoustics::voxelizeCached(sized.room, 3);
  const auto insideCells = grid->insideCells;
  const auto mcells = [&](double ms) {
    return ms > 0.0 ? static_cast<double>(insideCells) / (ms * 1e3) : 0.0;
  };
  std::vector<PathRow> pathRows;
  for (auto model : {acoustics::BoundaryModel::FusedFi,
                     acoustics::BoundaryModel::FiMm,
                     acoustics::BoundaryModel::FdMm}) {
    PathRow row{model, {}, {}, {}};
    row.stepper =
        SerialLoop(sized.room, model, false, false, opt.branches).time(opt);
    row.lookup =
        SerialLoop(sized.room, model, true, false, opt.branches).time(opt);
    if (model != acoustics::BoundaryModel::FusedFi) {
      row.flat =
          SerialLoop(sized.room, model, false, true, opt.branches).time(opt);
    }
    pathRows.push_back(row);
  }

  Table pathTable({"Algorithm", "Size", "Volume kernel", "Volume ms",
                   "Mcells/s", "Speedup"});
  double worstSpeedup = 1e30;
  for (const auto& r : pathRows) {
    const double speedup = r.stepper.volumeMs > 0.0
                               ? r.lookup.volumeMs / r.stepper.volumeMs
                               : 0.0;
    worstSpeedup = std::min(worstSpeedup, speedup);
    pathTable.addRow({acoustics::modelName(r.model), sized.label, "lookup",
                      strformat("%.4f", r.lookup.volumeMs),
                      strformat("%.1f", mcells(r.lookup.volumeMs)),
                      "1.00x"});
    pathTable.addRow({acoustics::modelName(r.model), sized.label,
                      "interior-run", strformat("%.4f", r.stepper.volumeMs),
                      strformat("%.1f", mcells(r.stepper.volumeMs)),
                      strformat("%.2fx", speedup)});
  }
  std::printf("%s\n", pathTable.render().c_str());
  std::printf(
      ">=1.3x interior-run speedup on every model: %s (bit-identical fields;\n"
      "the run kernels drop the per-cell nbrs load and branch so GCC\n"
      "vectorizes the interior loop)\n\n",
      worstSpeedup >= 1.3 ? "[yes]" : "[no]");

  Table bndTable({"Algorithm", "Size", "Boundary kernel", "Boundary ms",
                  "Step ms", "Share", "Speedup"});
  double fdmmClassesSpeedup = 0.0;
  double fdmmFlatShare = 0.0, fdmmClassesShare = 0.0;
  for (const auto& r : pathRows) {
    if (r.model == acoustics::BoundaryModel::FusedFi) continue;
    const double speedup = r.stepper.boundaryMs > 0.0
                               ? r.flat.boundaryMs / r.stepper.boundaryMs
                               : 0.0;
    for (const bool isClasses : {false, true}) {
      const PhaseTiming& t = isClasses ? r.stepper : r.flat;
      bndTable.addRow({acoustics::modelName(r.model), sized.label,
                       isClasses ? "classes" : "flat",
                       strformat("%.4f", t.boundaryMs),
                       strformat("%.4f", t.stepMs()),
                       strformat("%.1f%%", 100.0 * t.boundaryShare()),
                       isClasses ? strformat("%.2fx", speedup) : "1.00x"});
    }
    if (r.model == acoustics::BoundaryModel::FdMm) {
      fdmmClassesSpeedup = speedup;
      fdmmFlatShare = r.flat.boundaryShare();
      fdmmClassesShare = r.stepper.boundaryShare();
    }
  }
  std::printf("%s\n", bndTable.render().c_str());
  std::printf(
      "FD-MM boundary share of step time: %.1f%% flat -> %.1f%% classes\n"
      "(fission drops the per-point nbrs gather over the full grid and the\n"
      "data-dependent coefficient select; fields stay bit-identical)\n\n",
      100.0 * fdmmFlatShare, 100.0 * fdmmClassesShare);

  // Per-class FD-MM breakdown: each class's branch-free kernel timed over
  // its slot range of the class-major layout.
  const auto classRows = fdmmClassBreakdown(sized.room, opt);
  double classTotalMs = 0.0;
  for (const auto& c : classRows) classTotalMs += c.ms;
  std::printf("FD-MM per-class boundary kernels (1 thread):\n%s\n",
              renderClassBreakdown(classRows).c_str());

  // Explicit perf gates. Thread-scaling gates are skipped — with the reason
  // recorded — when the machine measured has fewer than 4 cores; the two
  // kernel gates are serial measurements, but on small shared runners the
  // timing ratios swing far too wide to enforce (observed 1.06-1.63x for
  // the same binary back to back on one loaded core), so they share the
  // skip rule.
  const std::string scaleSkip = fewCoresSkipReason();
  const std::vector<Gate> gates = {
      makeGate("fi_taskgraph_speedup_4t", fiGraphSpeedup4, 2.0, scaleSkip),
      makeGate("fdmm_taskgraph_speedup_4t", fdmmGraphSpeedup4, 1.3, scaleSkip),
      makeGate("runs_speedup_min", worstSpeedup, 1.3, scaleSkip),
      makeGate("fdmm_boundary_classes_speedup", fdmmClassesSpeedup, 1.4,
               scaleSkip)};
  printGates(gates);

  // Machine-readable mirror of the tables and gates.
  const std::string jsonPath = "BENCH_refstep.json";
  JsonWriter json;
  json.beginObject().field("bench", "ref_step_scaling");
  json.key("room")
      .beginObject()
      .field("shape", "box")
      .field("label", sized.label)
      .field("nx", sized.room.nx)
      .field("ny", sized.room.ny)
      .field("nz", sized.room.nz)
      .field("cells", static_cast<std::uint64_t>(grid->cells()))
      .field("inside_cells", static_cast<std::uint64_t>(insideCells))
      .field("interior_cells",
             static_cast<std::uint64_t>(grid->interiorRuns.interiorCells))
      .field("boundary_points",
             static_cast<std::uint64_t>(grid->boundaryPoints()))
      .endObject();
  json.field("iters", opt.iters).field("warmup", opt.warmup);
  json.field("threads_hw", hw);
  json.key("thread_scaling").beginArray();
  for (const auto& r : scalingRows) {
    json.beginObject()
        .field("model", jsonModelKey(r.model))
        .field("threads", r.threads)
        .field("step_ms", r.stepMs)
        .field("speedup", r.speedup, 4)
        .endObject();
  }
  json.endArray();
  json.field("fi_taskgraph_speedup_4t", fiGraphSpeedup4, 4)
      .field("fi_taskgraph_target", 2.0, 1)
      .field("fdmm_taskgraph_speedup_4t", fdmmGraphSpeedup4, 4)
      .field("fdmm_taskgraph_target", 1.3, 1);
  json.key("volume_path").beginArray();
  for (const auto& r : pathRows) {
    for (const bool isRuns : {false, true}) {
      const PhaseTiming& t = isRuns ? r.stepper : r.lookup;
      json.beginObject()
          .field("model", jsonModelKey(r.model))
          .field("path", isRuns ? "runs" : "lookup")
          .field("volume_ms", t.volumeMs)
          .field("step_ms", t.stepMs())
          .field("volume_mcells_per_s", mcells(t.volumeMs), 3)
          .endObject();
    }
  }
  json.endArray();
  json.field("runs_speedup_min", worstSpeedup, 4)
      .field("runs_speedup_target", 1.3, 1);
  json.key("boundary_path").beginArray();
  for (const auto& r : pathRows) {
    if (r.model == acoustics::BoundaryModel::FusedFi) continue;
    for (const bool isClasses : {false, true}) {
      const PhaseTiming& t = isClasses ? r.stepper : r.flat;
      json.beginObject()
          .field("model", jsonModelKey(r.model))
          .field("path", isClasses ? "classes" : "flat")
          .field("boundary_ms", t.boundaryMs)
          .field("step_ms", t.stepMs())
          .field("boundary_share", t.boundaryShare(), 4)
          .endObject();
    }
  }
  json.endArray();
  json.field("fdmm_boundary_classes_speedup", fdmmClassesSpeedup, 4)
      .field("fdmm_boundary_share_flat", fdmmFlatShare, 4)
      .field("fdmm_boundary_share_classes", fdmmClassesShare, 4);
  json.key("boundary_classes").beginArray();
  for (const auto& c : classRows) {
    json.beginObject()
        .field("class", c.cls)
        .field("name", acoustics::boundaryClassName(c.cls))
        .field("nbr", acoustics::boundaryClassNbr(c.cls))
        .field("count", c.count)
        .field("ms", c.ms)
        .field("share", classTotalMs > 0.0 ? c.ms / classTotalMs : 0.0, 4)
        .endObject();
  }
  json.endArray();
  writeGates(json, gates);
  json.endObject();
  try {
    json.writeFile(jsonPath);
    std::printf("\nwrote %s\n", jsonPath.c_str());
  } catch (const Error& e) {
    std::printf("\n[warn] could not write %s: %s\n", jsonPath.c_str(),
                e.what());
  }

  // One instrumented profile at full concurrency, as the profiler reports it.
  acoustics::Simulation<double>::Config cfg;
  cfg.room = sized.room;
  cfg.model = acoustics::BoundaryModel::FdMm;
  cfg.numMaterials = 3;
  cfg.numBranches = opt.branches;
  cfg.params.threads = 0;  // shared pool at hardware concurrency
  acoustics::Simulation<double> sim(cfg);
  sim.addImpulse(sized.room.nx / 2, sized.room.ny / 2, sized.room.nz / 2, 1.0);
  sim.enableProfiling();
  sim.run(opt.iters);
  printStepProfile(
      strformat("FD-MM %s, %zu threads", sized.label.c_str(),
                sim.threadsUsed()),
      sim.profile());
  return 0;
}
