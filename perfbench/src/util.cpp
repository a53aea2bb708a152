#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * double(samples.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - double(lo));
}

namespace {

std::size_t status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::size_t(std::stoull(line.substr(prefix.size())));
    }
  }
  return 0;
}

}  // namespace

std::size_t rss_bytes() { return status_kib("VmRSS") * 1024; }

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first.
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}
std::size_t peak_rss_bytes() { return status_kib("VmHWM") * 1024; }

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::begin(const char* name, std::uint64_t session,
                                std::size_t parent) {
  if (!enabled_) return kNone;
  Span span;
  span.name = name;
  span.parent = parent != kInherit ? parent
                : stack_.empty()     ? kNone
                                     : stack_.back();
  span.session = session;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t handle) {
  if (handle == kNone) return;
  spans_[handle].end_us = now_us();
}

std::string SpanRecorder::summary_json() const {
  struct Row {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      child_us[span.parent] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    const double duration = spans_[i].end_us - spans_[i].start_us;
    ++row.count;
    row.total_us += duration;
    row.self_us += duration - child_us[i];
  }
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, row] : rows) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"count\": "
        << row.count << ", \"total_ms\": " << json_number(row.total_us / 1e3)
        << ", \"self_ms\": " << json_number(row.self_us / 1e3) << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(span.name)
        << ", \"parent\": "
        << (span.parent == kNone ? std::string("null")
                                 : std::to_string(span.parent))
        << ", \"session\": " << span.session
        << ", \"start_us\": " << json_number(span.start_us)
        << ", \"end_us\": " << json_number(span.end_us) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return bool(out);
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name,
                       std::uint64_t session)
    : recorder_(recorder), handle_(recorder.begin(name, session)) {
  if (handle_ != SpanRecorder::kNone) recorder_.stack_.push_back(handle_);
}

ScopedSpan::~ScopedSpan() {
  if (handle_ == SpanRecorder::kNone) return;
  recorder_.end(handle_);
  recorder_.stack_.pop_back();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
