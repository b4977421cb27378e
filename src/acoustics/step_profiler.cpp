#include "acoustics/step_profiler.hpp"

#include <cstdio>

namespace lifta::acoustics {

void StepProfiler::recordStepTasked(double volumeCpuMs, double boundaryCpuMs,
                                    std::size_t cells, double wallMs) {
  volumeMs_.push_back(volumeCpuMs);
  boundaryMs_.push_back(boundaryCpuMs);
  stepWallMs_.push_back(wallMs);
  cellsPerStep_ = cells;
}

void StepProfiler::reset() {
  volumeMs_.clear();
  boundaryMs_.clear();
  stepWallMs_.clear();
  cellsPerStep_ = 0;
}

double StepProfiler::boundaryFraction() const {
  double volume = 0.0, boundary = 0.0;
  for (double v : volumeMs_) volume += v;
  for (double v : boundaryMs_) boundary += v;
  const double total = volume + boundary;
  return total > 0.0 ? boundary / total : 0.0;
}

double StepProfiler::cellsPerSecond() const {
  double totalMs = 0.0;
  for (double v : stepWallMs_) totalMs += v;
  if (totalMs <= 0.0) return 0.0;
  return static_cast<double>(cellsPerStep_) *
         static_cast<double>(stepWallMs_.size()) / (totalMs * 1e-3);
}

std::string StepProfiler::report(const std::string& label) const {
  char line[256];
  std::string out = label + ": " + std::to_string(steps()) + " steps\n";
  if (steps() == 0) return out;
  const auto vol = volumeStats();
  const auto bnd = boundaryStats();
  const auto tot = stepStats();
  std::snprintf(line, sizeof line,
                "  volume   median %8.4f ms  (mean %8.4f, max %8.4f)\n",
                vol.median, vol.mean, vol.max);
  out += line;
  std::snprintf(line, sizeof line,
                "  boundary median %8.4f ms  (mean %8.4f, max %8.4f)\n",
                bnd.median, bnd.mean, bnd.max);
  out += line;
  std::snprintf(line, sizeof line,
                "  step     median %8.4f ms   boundary share %5.1f%%   "
                "%.2f Mcells/s\n",
                tot.median, 100.0 * boundaryFraction(),
                cellsPerSecond() / 1e6);
  out += line;
  out += "  step-time distribution (ms):\n";
  out += stepHistogramRender();
  return out;
}

std::string StepProfiler::stepHistogramRender() const {
  return Histogram::fromSamples(stepWallMs_, 8).render();
}

}  // namespace lifta::acoustics
