// Common benchmark options, room selection and timing for the bench/
// binaries that regenerate the paper's tables and figures.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "acoustics/geometry.hpp"
#include "acoustics/step_profiler.hpp"
#include "common/cli.hpp"
#include "ocl/device.hpp"

namespace lifta {
class JsonWriter;
}

namespace lifta::harness {

struct BenchOptions {
  /// Paper-size rooms (Table II). Default: proportionally scaled rooms so
  /// the whole suite completes quickly on one CPU core; the labels keep the
  /// paper's size names so rows are directly comparable.
  bool full = false;
  int iters = 15;    // timing iterations (paper: 2000)
  int warmup = 3;
  std::size_t localSize = 64;   // work-group size after hand-tuning
  /// --autotune: pick the work-group size per row with
  /// harness::autotuneWorkGroup instead of using `localSize` (§VI's
  /// "hand-tuned by workgroup size", automated).
  bool autotune = false;
  int branches = 3;             // FD-MM branch count (paper: 3)
  /// Run the row set for all four Table III platforms (one host CPU
  /// underneath; see the banner each bench prints).
  bool allPlatforms = false;

  static BenchOptions fromArgs(int argc, const char* const* argv);
};

struct SizedRoom {
  std::string label;       // the paper's size name ("602", "336", "302")
  acoustics::Room room;
};

/// The three Table II rooms, scaled down ~8x per dimension by default.
std::vector<SizedRoom> benchRooms(acoustics::RoomShape shape, bool full);

/// Platforms to report: the four Table III profiles with --all-platforms,
/// otherwise just the native host device.
std::vector<ocl::DeviceProfile> benchPlatforms(const BenchOptions& opt);

/// Times `launch` (which must perform one kernel execution and return its
/// event milliseconds) and returns the median over opt.iters runs.
double medianKernelMs(const std::function<double()>& launch,
                      const BenchOptions& opt);

/// Mega-updates per second for `updates` grid/boundary points per launch.
double mups(std::size_t updates, double medianMs);

/// Standard banner explaining the simulation substitution.
void printBenchBanner(const std::string& title, const BenchOptions& opt);

/// Verdict string for the LIFT-vs-OpenCL parity checks (figs 4-6). The
/// paper's claim is "on par" (ratio ~0.85-1.20x); with the codegen
/// optimizer enabled the generated kernels can legitimately beat the
/// hand-written baseline, which is reported as exceeding the paper rather
/// than deviating from it.
const char* parityVerdict(double liftOverOpenclRatio);

/// Prints a StepProfiler report (per-kernel medians, boundary share,
/// throughput, step-time histogram) for one instrumented simulation run.
void printStepProfile(const std::string& label,
                      const acoustics::StepProfiler& profiler);

/// One row of the FD-MM per-class boundary breakdown: the topology class,
/// its point count and the median wall time of its branch-free class
/// kernel (mixed fallback for the corner class) run over its slot range of
/// the class-major sorted layout. Empty classes are omitted.
struct BoundaryClassTiming {
  int cls = 0;
  std::int32_t count = 0;
  double ms = 0.0;
};

/// Times the FD-MM boundary phase class by class (serial, opt.iters
/// samples, tiny classes amortized over repeats) for the room's boundary
/// topology. Shares are against the summed per-class time.
std::vector<BoundaryClassTiming> fdmmClassBreakdown(
    const acoustics::Room& room, const BenchOptions& opt);

/// Renders the fdmmClassBreakdown rows as a table (class, nbr, points, ms,
/// share).
std::string renderClassBreakdown(const std::vector<BoundaryClassTiming>& rows);

/// An explicit perf gate, met when value >= target. Benches write their
/// gates as the JSON "gates" array of their BENCH_*.json file, and
/// tools/check_gates.py fails CI on any gate with `met == false` unless
/// `skipped` says why the measurement is not meaningful on this machine —
/// so a missed target can never pass silently.
struct Gate {
  std::string name;
  double value = 0.0;
  double target = 0.0;
  bool met = false;
  bool skipped = false;
  std::string reason;
};

/// A gate on `value >= target`; a non-empty `skipReason` marks it skipped.
Gate makeGate(const std::string& name, double value, double target,
              const std::string& skipReason = "");

/// Skip reason for timing-ratio gates measured on fewer than 4 hardware
/// threads ("" on 4 or more): on small shared runners thread scaling is
/// meaningless and serial ratios swing too wide to enforce.
std::string fewCoresSkipReason();

/// Prints one status line per gate and a summary line.
void printGates(const std::vector<Gate>& gates);

/// Writes `"gates": [...]` (name, value, target, met, skipped, reason) into
/// the currently open JSON object.
void writeGates(JsonWriter& json, const std::vector<Gate>& gates);

}  // namespace lifta::harness
