// serve_bench — load generator, oracle and layer probes of the serving
// benchmark.
//
//   serve_bench --workload chat|rag|longctx_faults --seed N --seconds S
//               --trace 0|1 [--span-file PATH]
//
// --trace 0 runs the untraced end-to-end measurement; --trace 1 runs the
// separate traced pass (a shorter untraced run for the telemetry-derived
// layer figures, the manual-mode replay, the per-call layer probes and the
// per-token budget). Both check every completed session against the
// golden-token oracle. The second-to-last stdout line is the full report
// (every figure with unit, sample count and source); the last line is the
// result object with the metrics BENCHMARK.json declares.
#include <iostream>
#include <string>
#include <vector>

#include "common/ensure.hpp"
#include "e2e.hpp"
#include "layers.hpp"

namespace {

using namespace perfbench;

// The figures BENCHMARK.json declares, per mode.
const std::vector<std::string> kEndToEnd = {
    "tokens_per_s", "ttft_p50_ms",    "ttft_p95_ms",   "tpot_p50_ms",
    "tpot_p95_ms",  "slo_met_frac",   "served_ok_frac", "sdc_free_frac",
    "peak_rss_mb",  "setup_s"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    FLASHABFT_ENSURE_MSG(i + 1 < argc, "flag " << flag << " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      FLASHABFT_ENSURE_MSG(args.seconds > 0.0, "--seconds must be positive");
    } else if (flag == "--trace") {
      FLASHABFT_ENSURE_MSG(value == "0" || value == "1", "--trace is 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else {
      FLASHABFT_ENSURE_MSG(false, "unknown flag " << flag);
    }
  }
  FLASHABFT_ENSURE_MSG(have_workload, "--workload is required");
  return args;
}

std::string metric_json(const Metric& metric, bool full) {
  std::string out = "{\"value\": " + json_number(metric.value) +
                    ", \"unit\": " + json_string(metric.unit);
  if (full) {
    out += ", \"samples\": " + std::to_string(metric.samples) +
           ", \"source\": " + json_string(metric.source);
  }
  return out + "}";
}

std::string metrics_json(const Metrics& metrics, bool full) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": " +
           metric_json(metric, full);
    first = false;
  }
  return out + "}";
}

std::string samples_json(const std::vector<double>& samples) {
  std::string out = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(samples[i]);
  }
  return out + "]";
}

/// Outcome counts of the golden check and the fault classes.
std::string outcome_json(const RunResult& run) {
  std::size_t checked = 0, completed = 0, threw = 0, dirty = 0, mismatched = 0,
              near_ties = 0, faulted = 0, faulted_failed = 0;
  for (const SessionOutcome& s : run.sessions) {
    if (s.threw) ++threw;
    if (!s.threw) ++completed;
    if (s.golden_checked) ++checked;
    if (!s.threw && !s.clean) ++dirty;
    if (s.golden_checked && !s.golden_ok) ++mismatched;
    near_ties += s.near_ties;
    if (s.fault != FaultClass::kNone) {
      ++faulted;
      if (s.failed()) ++faulted_failed;
    }
  }
  return "{\"sent\": " + std::to_string(run.sessions.size()) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"golden_checked\": " + std::to_string(checked) +
         ", \"golden_mismatched\": " + std::to_string(mismatched) +
         ", \"near_ties\": " + std::to_string(near_ties) +
         ", \"near_tie_tolerance\": " + json_number(run.near_tie_tolerance) +
         ", \"threw_or_shed\": " + std::to_string(threw) +
         ", \"checksum_dirty\": " + std::to_string(dirty) +
         ", \"faulted\": " + std::to_string(faulted) +
         ", \"faulted_failed\": " + std::to_string(faulted_failed) + "}";
}

int run(const Args& args) {
  const WorkloadSpec& spec = workload_by_name(args.workload);
  Metrics report;
  Metrics result;
  std::string extra;
  RunResult run;
  if (!args.trace) {
    run = run_end_to_end(spec, args.seed, args.seconds, /*setup_reps=*/15);
    report = end_to_end_metrics(spec, run);
    for (const std::string& name : kEndToEnd) result[name] = report.at(name);
    // Informational: the run's own counters, beside the timed figures.
    report.merge(telemetry_metrics(run));
  } else {
    // Memory probes first: they read RSS growth, which later allocations
    // (and memory freed back to the heap) would blur.
    report = memory_probes(spec);
    run = run_end_to_end(spec, args.seed, 0.4 * args.seconds,
                         /*setup_reps=*/1);
    report.merge(telemetry_metrics(run));
    SpanRecorder spans(true);
    TracedPass traced =
        run_traced_pass(spec, args.seed, run, 0.6 * args.seconds, spans);
    report.merge(traced.metrics);
    result = report;
    extra = ", \"budget\": " + traced.budget_json +
            ", \"spans\": " + traced.spans_json;
    if (!args.span_file.empty()) {
      FLASHABFT_ENSURE_MSG(spans.write_json(args.span_file),
                           "cannot write " << args.span_file);
      extra += ", \"span_file\": " + json_string(args.span_file);
    }
  }

  std::size_t failed = 0, sdc = 0, unchecked = 0;
  for (const SessionOutcome& s : run.sessions) {
    if (s.failed()) ++failed;
    if (s.sdc()) ++sdc;
    if (!s.threw && !s.golden_checked) ++unchecked;
  }
  const bool correct = sdc == 0 && unchecked == 0 && !run.sessions.empty();
  std::cout << "{\"report\": {\"workload\": " << json_string(spec.name)
            << ", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"slo\": {\"ttft_ms\": " << json_number(spec.slo_ttft_ms)
            << ", \"tpot_ms\": " << json_number(spec.slo_tpot_ms) << "}"
            << ", \"outcomes\": " << outcome_json(run)
            << ", \"setup_samples_s\": " << samples_json(run.setup_s)
            << ", \"host_steal_frac\": " << json_number(run.host_steal)
            << ", \"metrics\": " << metrics_json(report, true) << extra
            << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.sessions.size()
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(result, false) << "}"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 1;
  }
}
