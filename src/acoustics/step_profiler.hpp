// Opt-in per-kernel instrumentation of the reference stepper (Fig. 2, §III).
//
// When enabled, the stepper records per-step volume/boundary attribution and
// per-step wall time here. It accumulates per-task thread-CPU time per
// phase — wall intervals stop meaning anything once tasks from adjacent
// pipelined steps overlap on the cores — and divides the batch wall time
// evenly over its steps; at one thread the two phases' CPU time adds up to
// the step's wall time (less scheduling overhead). The profiler keeps the
// raw per-step samples so the paper's quantities — median kernel time,
// boundary share of a step, sustained cell updates per second — and a
// distribution histogram can all be derived from the same instrumentation,
// instead of from ad-hoc timers scattered over the benchmarks.
//
// For the fused single-kernel model (Listing 1) the whole step is one
// kernel; it is recorded as volume time with zero boundary time.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace lifta::acoustics {

class StepProfiler {
public:
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Called by the stepper once per completed step of a batch.
  /// volume/boundary are per-phase *CPU* time summed over the step's tasks
  /// (wall intervals would double-count once tasks from adjacent pipelined
  /// steps overlap on the cores); wallMs is the step's share of the batch
  /// wall time and is what throughput (cellsPerSecond, stepStats) uses.
  void recordStepTasked(double volumeCpuMs, double boundaryCpuMs,
                        std::size_t cells, double wallMs);

  /// Drops all recorded samples; keeps the enabled flag.
  void reset();

  std::size_t steps() const { return volumeMs_.size(); }
  const std::vector<double>& volumeMs() const { return volumeMs_; }
  const std::vector<double>& boundaryMs() const { return boundaryMs_; }
  const std::vector<double>& stepWallMs() const { return stepWallMs_; }

  SampleStats volumeStats() const { return summarize(volumeMs_); }
  SampleStats boundaryStats() const { return summarize(boundaryMs_); }
  /// Stats of per-step wall time.
  SampleStats stepStats() const { return summarize(stepWallMs_); }

  /// Share of total step *work* spent in boundary handling, in [0, 1]
  /// (the quantity Fig. 2 plots as a percentage). Computed from the
  /// per-phase CPU attribution samples, so it stays truthful when steps
  /// overlap on the cores. 0 when nothing recorded.
  double boundaryFraction() const;

  /// Sustained grid-cell updates per second over all recorded steps.
  double cellsPerSecond() const;

  Histogram volumeHistogram(std::size_t bins = 16) const {
    return Histogram::fromSamples(volumeMs_, bins);
  }
  Histogram boundaryHistogram(std::size_t bins = 16) const {
    return Histogram::fromSamples(boundaryMs_, bins);
  }

  /// Multi-line human-readable report (used by the bench harness).
  std::string report(const std::string& label) const;

private:
  std::string stepHistogramRender() const;

  bool enabled_ = false;
  /// Per-phase CPU attribution samples and the per-step wall time
  /// alongside.
  std::vector<double> volumeMs_;
  std::vector<double> boundaryMs_;
  std::vector<double> stepWallMs_;
  std::size_t cellsPerStep_ = 0;
};

}  // namespace lifta::acoustics
