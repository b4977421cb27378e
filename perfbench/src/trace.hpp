// In-memory span recorder for the traced benchmark run, plus the small
// statistics and metric-output helpers every workload shares.
//
// A span is {name, start, end, parent, job}: the benchmark opens one around
// each call it makes into a layer's public function, nested under a root
// span per job. Spans stay in memory and are written out once, at the end
// of the run. A null Tracer* turns every Scope into a plain timer, so the
// same replay code serves the untraced output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rirbench {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);
double msSince(Clock::time_point t0);

struct Span {
  std::string name;
  double startMs = 0.0;  // relative to the tracer's epoch
  double endMs = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int job = -1;     // job the span belongs to (shared by its subtree)
  int group = 0;    // workload whose replay recorded it
  double ms() const { return endMs - startMs; }
};

class Tracer {
public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string& name, int job);
  void close(int idx);
  void rename(int idx, const std::string& name) {
    spans_[static_cast<std::size_t>(idx)].name = name;
  }
  /// Workload group stamped on spans opened from now on.
  void setGroup(int group) { group_ = group; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the part of its interval that child spans cover.
  std::vector<double> selfMs() const;

  /// Writes every span (with its self time) as a JSON array to `path`.
  void write(const std::string& path) const;

private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int group_ = 0;
};

/// RAII span around one layer call. Always measures its own duration;
/// records a span only when the tracer is non-null.
class Scope {
public:
  Scope(Tracer* t, const std::string& name, int job)
      : t_(t), idx_(t ? t->open(name, job) : -1), t0_(Clock::now()) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the span (once) and returns its duration in ms.
  double end() {
    if (!open_) return ms_;
    open_ = false;
    ms_ = msSince(t0_);
    if (t_) t_->close(idx_);
    return ms_;
  }
  void rename(const std::string& name) {
    if (t_) t_->rename(idx_, name);
  }

private:
  Tracer* t_;
  int idx_;
  Clock::time_point t0_;
  bool open_ = true;
  double ms_ = 0.0;
};

/// Median of a sample set (0 for an empty one).
double medianOf(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentileOf(std::vector<double> v, double p);

/// Peak resident set size of this process so far, MiB (VmHWM).
double peakRssMb();

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The final result line: exactly correct / attempted / failed / metrics.
std::string resultLine(bool correct, long attempted, long failed,
                       const Metrics& metrics);

/// JSON string literal with escapes.
std::string jsonString(const std::string& s);

}  // namespace rirbench
