// Concert hall: a dome-shaped room with frequency-dependent multi-material
// walls (FD-MM, 3 ODE branches), simulated end to end by DeviceSimulation on
// LIFT-*generated* kernels scheduled by the generated host program — the
// full pipeline of the paper. Records an impulse response at a listener
// position, estimates RT60 via Schroeder backward integration, and writes a
// WAV.
//
//   ./concert_hall [--steps 2400] [--out hall.wav] [--nx 120]
#include <cstdio>
#include <vector>

#include "acoustics/analysis.hpp"
#include "common/cli.hpp"
#include "common/wav.hpp"
#include "lift_acoustics/device_simulation.hpp"

using namespace lifta;
using namespace lifta::acoustics;

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const int steps = static_cast<int>(args.getInt("steps", 2400));
  const int nx = static_cast<int>(args.getInt("nx", 120));
  const std::string outPath = args.getString("out", "hall.wav");

  lift_acoustics::DeviceSimulation::Config cfg;
  cfg.room = Room{RoomShape::Dome, nx, (nx * 3) / 4, nx / 2};
  cfg.model = lift_acoustics::DeviceModel::FdMm;
  cfg.numMaterials = 3;
  cfg.numBranches = 3;
  ocl::Context ctx;
  lift_acoustics::DeviceSimulation sim(ctx, cfg);
  const Room& room = sim.config().room;

  std::printf("concert hall: dome %dx%dx%d, %zu cells, %zu boundary points,"
              " %d materials x %d branches\n",
              room.nx - 2, room.ny - 2, room.nz - 2, sim.grid().cells(),
              sim.grid().boundaryPoints(), cfg.numMaterials, cfg.numBranches);

  const int sx = room.nx / 2, sy = room.ny / 2, sz = room.nz / 3;
  sim.addImpulse(sx, sy, sz, 1.0);
  sim.addImpulse(sx + 1, sy, sz, -1.0);
  const std::vector<double> rir = sim.record(
      steps, room.nx - room.nx / 4, room.ny / 2, room.nz / 2);

  const double volMs = sim.totalVolumeMs(), bndMs = sim.totalBoundaryMs();
  std::printf("ran %d steps on LIFT-generated kernels (%zu per step): volume "
              "%.1f ms, boundary %.1f ms (%.1f%% boundary)\n",
              steps, sim.totalKernels(), volMs, bndMs,
              100.0 * bndMs / (volMs + bndMs));
  const double rt60 = estimateRt60(rir, cfg.params.Ts());
  std::printf("estimated RT60: %.3f s\n", rt60);

  writeWav(outPath, normalize(rir), static_cast<int>(cfg.params.sampleRate));
  std::printf("wrote %s (%zu samples)\n", outPath.c_str(), rir.size());
  return 0;
}
