// Shared plumbing of the serving benchmark: clocks, quantiles, process
// memory readings, the metric table and the benchmark-side span recorder.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile of `samples` (p in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Resident set size (VmRSS) and its high-water mark (VmHWM) of this
/// process, in bytes, read from /proc/self/status.
[[nodiscard]] std::size_t rss_bytes();
[[nodiscard]] std::size_t peak_rss_bytes();

/// Host CPU time counters from /proc/stat (all CPUs, clock ticks): the
/// share of CPU time the hypervisor stole between two readings tells a
/// contended host from a slow program.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
[[nodiscard]] inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total
             ? double(b.steal - a.steal) / double(b.total - a.total)
             : 0.0;
}

/// One reported figure. `samples` is how many observations it summarizes
/// (calls timed, sessions, ticks); `source` says where it came from:
/// "measured" (timed by the benchmark), "telemetry" (the program's own
/// counters, self-reported) or "computed" (derived from tensor sizes).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string source = "measured";
};
using Metrics = std::map<std::string, Metric>;

inline void put(Metrics& metrics, const std::string& name, double value,
                const std::string& unit, std::size_t samples,
                const std::string& source = "measured") {
  metrics[name] = Metric{value, unit, samples, source};
}

/// Spans recorded around the benchmark's own calls into each layer: name,
/// start, end, the enclosing span and an optional session id. Kept in
/// memory and written out once at the end. A disabled recorder records
/// nothing, which is the untraced half of the tracing-overhead pair.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::size_t parent = kNone;
    std::uint64_t session = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  static constexpr std::size_t kNone = std::size_t(-1);

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Marks "nest under the innermost open scoped span".
  static constexpr std::size_t kInherit = std::size_t(-2);

  /// Opens a span under `parent` (kNone: a root span) and returns its
  /// handle; kNone when disabled.
  std::size_t begin(const char* name, std::uint64_t session = 0,
                    std::size_t parent = kInherit);
  void end(std::size_t handle);
  /// Per span name: count, total and self time (total minus the part of
  /// the interval its direct children cover), in ms.
  [[nodiscard]] std::string summary_json() const;
  /// Writes every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  friend class ScopedSpan;
  [[nodiscard]] double now_us() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span nested under the recorder's innermost scoped span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name,
             std::uint64_t session = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t handle_;
};

/// Formats a double with all its significant digits (JSON number).
[[nodiscard]] std::string json_number(double value);
/// Escapes a string for a JSON string literal (quotes included).
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace perfbench
