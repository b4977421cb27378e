// Regenerates Figure 2: the percentage of a simulation step spent in
// boundary handling (kernel 2) for the FI-MM and FD-MM algorithms, box and
// dome rooms, using the hand-written kernels as in the paper's motivation
// section. The paper measures up to ~20% for FD-MM on a GTX 780.
#include <cstdio>

#include "acoustics/simulation.hpp"
#include "common/string_util.hpp"
#include "harness/acoustic_bench.hpp"
#include "harness/bench_common.hpp"
#include "harness/table.hpp"

using namespace lifta;
using namespace lifta::harness;

namespace {

struct Fraction {
  double volumeMs = 0.0;
  double boundaryMs = 0.0;
  double pct() const { return 100.0 * boundaryMs / (volumeMs + boundaryMs); }
};

template <typename T>
Fraction measure(ocl::Context& ctx, const acoustics::Room& room, bool fd,
                 const BenchOptions& opt) {
  AcousticBench<T> bench(ctx, room, 3, fd ? opt.branches : 0);
  auto volume = bench.volume(Impl::Handwritten, opt.localSize);
  auto boundary = fd ? bench.fdMm(Impl::Handwritten, opt.localSize)
                     : bench.fiMm(Impl::Handwritten, opt.localSize);
  ocl::CommandQueue q(ctx);
  Fraction f;
  f.volumeMs =
      medianKernelMs([&] { return volume.run(q).milliseconds; }, opt);
  f.boundaryMs =
      medianKernelMs([&] { return boundary.run(q).milliseconds; }, opt);
  return f;
}

// The same split measured on the reference ("hand-written C") tier from the
// stepper's own StepProfiler instrumentation instead of per-kernel enqueue
// timers: every step records its volume/boundary task CPU time inside
// Simulation<T>.
Fraction measureReference(const acoustics::Room& room, bool fd,
                          const BenchOptions& opt) {
  acoustics::Simulation<double>::Config cfg;
  cfg.room = room;
  cfg.model =
      fd ? acoustics::BoundaryModel::FdMm : acoustics::BoundaryModel::FiMm;
  cfg.numMaterials = 3;
  cfg.numBranches = fd ? opt.branches : 0;
  acoustics::Simulation<double> sim(cfg);
  sim.addImpulse(room.nx / 2, room.ny / 2, room.nz / 2, 1.0);
  for (int i = 0; i < opt.warmup; ++i) sim.step();
  sim.enableProfiling();
  for (int i = 0; i < opt.iters; ++i) sim.step();
  Fraction f;
  f.volumeMs = sim.profile().volumeStats().median;
  f.boundaryMs = sim.profile().boundaryStats().median;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::fromArgs(argc, argv);
  printBenchBanner(
      "Figure 2: boundary handling % of total computation time", opt);

  Table table({"Shape", "Algorithm", "Size", "Volume ms", "Boundary ms",
               "% Boundary"});
  ocl::Context ctx;
  double fiPct = 0.0, fdPct = 0.0;
  int n = 0;
  for (auto shape : {acoustics::RoomShape::Box, acoustics::RoomShape::Dome}) {
    for (const auto& sized : benchRooms(shape, opt.full)) {
      const auto fi = measure<double>(ctx, sized.room, /*fd=*/false, opt);
      const auto fd = measure<double>(ctx, sized.room, /*fd=*/true, opt);
      table.addRow({acoustics::shapeName(shape), "FI-MM", sized.label,
                    fmtMs(fi.volumeMs), fmtMs(fi.boundaryMs),
                    strformat("%.1f%%", fi.pct())});
      table.addRow({acoustics::shapeName(shape), "FD-MM", sized.label,
                    fmtMs(fd.volumeMs), fmtMs(fd.boundaryMs),
                    strformat("%.1f%%", fd.pct())});
      fiPct += fi.pct();
      fdPct += fd.pct();
      ++n;
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("average boundary share: FI-MM %.1f%%, FD-MM %.1f%%\n",
              fiPct / n, fdPct / n);

  // Reference tier, measured from StepProfiler instrumentation inside the
  // stepper rather than ad-hoc enqueue timers. The stepper runs the
  // interior-run volume and topology-class boundary kernels; the paper's
  // flat-kernel shape is the table above.
  Table refTable({"Shape", "Algorithm", "Size", "Volume ms", "Boundary ms",
                  "% Boundary"});
  for (auto shape : {acoustics::RoomShape::Box, acoustics::RoomShape::Dome}) {
    for (const auto& sized : benchRooms(shape, opt.full)) {
      for (const bool fd : {false, true}) {
        const auto f = measureReference(sized.room, fd, opt);
        refTable.addRow({acoustics::shapeName(shape), fd ? "FD-MM" : "FI-MM",
                         sized.label, fmtMs(f.volumeMs), fmtMs(f.boundaryMs),
                         strformat("%.1f%%", f.pct())});
      }
    }
  }
  std::printf("reference tier (StepProfiler instrumentation):\n%s\n",
              refTable.render().c_str());

  // Where the fissioned boundary time goes, class by class, on the largest
  // box room: counts, median ms and share of the summed per-class time.
  const auto classRooms = benchRooms(acoustics::RoomShape::Box, opt.full);
  std::printf(
      "FD-MM per-class boundary kernels (box %s, 1 thread):\n%s\n",
      classRooms.front().label.c_str(),
      renderClassBreakdown(fdmmClassBreakdown(classRooms.front().room, opt))
          .c_str());
  std::printf(
      "paper shape: FD-MM boundary handling costs several times FI-MM's\n"
      "share, reaching ~20%% of the step (Fig. 2).  %s\n",
      (fdPct > fiPct) ? "[reproduced: FD-MM > FI-MM]"
                      : "[deviates — see EXPERIMENTS.md]");
  return 0;
}
