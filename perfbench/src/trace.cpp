#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace rirbench {

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double msSince(Clock::time_point t0) { return msBetween(t0, Clock::now()); }

int Tracer::open(const std::string& name, int job) {
  Span s;
  s.name = name;
  s.startMs = msSince(epoch_);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.job = job;
  s.group = group_;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].endMs = msSince(epoch_);
  // Scopes close in LIFO order; tolerate a mismatch by searching.
  const auto it = std::find(stack_.rbegin(), stack_.rend(), idx);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

std::vector<double> Tracer::selfMs() const {
  // The replay is single-threaded, so children of one span never overlap
  // and their durations simply subtract.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  const auto self = selfMs();
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  ", \"start_ms\": %.6f, \"end_ms\": %.6f, \"self_ms\": %.6f"
                  ", \"parent\": %d, \"job\": %d, \"group\": %d}",
                  s.startMs, s.endMs, self[i], s.parent, s.job, s.group);
    f << "  {\"name\": " << jsonString(s.name) << buf
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
}

double medianOf(std::vector<double> v) { return percentileOf(std::move(v), 50); }

double percentileOf(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string resultLine(bool correct, long attempted, long failed,
                       const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[64];
    // Full precision: runs are compared on the raw measured values.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << jsonString(name) << ": {\"value\": " << buf
        << ", \"unit\": " << jsonString(m.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace rirbench
