// The untraced end-to-end run: server setup, the load generator, the
// golden-token oracle and the user-visible metrics.
#pragma once

#include <memory>
#include <vector>

#include "serve/server.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

/// What happened to one session sent to the server.
struct SessionOutcome {
  FaultClass fault = FaultClass::kNone;
  std::vector<std::size_t> prompt;
  std::vector<std::size_t> tokens;  ///< served tokens (empty if it threw).
  bool threw = false;               ///< shed or failed by the engine.
  bool clean = false;               ///< response.checksum_clean.
  bool golden_checked = false;
  bool golden_ok = false;
  std::size_t near_ties = 0;        ///< bf16 positions passed by the tie rule.
  bool measured = false;            ///< sent inside the timed window.
  double sent_s = 0.0;              ///< send time, s from the run start.
  double ttft_ms = 0.0;             ///< submit -> first token.
  double tpot_ms = 0.0;             ///< mean gap between output tokens.
  double queue_ms = 0.0;
  double total_ms = 0.0;            ///< server-side enqueue -> completion.
  /// Refill delay: this send minus the completion (per the server's own
  /// stamps) that freed its client slot; 0 for the first wave.
  double lag_ms = 0.0;

  [[nodiscard]] bool failed() const { return threw || !clean || !golden_ok; }
  /// Returned clean but wrong: silent data corruption.
  [[nodiscard]] bool sdc() const { return !threw && clean && !golden_ok; }
};

struct RunResult {
  std::vector<SessionOutcome> sessions;
  std::vector<double> setup_s;      ///< one sample per setup repetition.
  double warmup_s = 0.0;            ///< the timed window starts here...
  double window_s = 0.0;            ///< ...and lasts this long.
  double run_s = 0.0;               ///< first send to last completion.
  std::size_t peak_rss = 0;         ///< VmHWM before the oracle ran.
  double host_steal = 0.0;          ///< CPU share stolen while driving.
  flashabft::serve::TelemetrySnapshot telemetry;
  double near_tie_tolerance = 0.0;  ///< bf16 tie rule at a unit logit.
};

/// Builds the server `setup_reps` times (timing each, lazy model and
/// scheduler construction forced), drives the workload for a warm-up plus
/// `window_s`, drains, then checks every completed session against the
/// teacher-forced oracle.
[[nodiscard]] RunResult run_end_to_end(const WorkloadSpec& spec,
                                       std::uint64_t seed, double window_s,
                                       std::size_t setup_reps);

/// Every end-to-end metric of `run` (contract names plus the issue's
/// failure fractions, which are zero on a healthy run). Throughput and
/// latency percentiles are medians over equal slices of the timed window;
/// the report also carries them pooled over the whole window.
[[nodiscard]] Metrics end_to_end_metrics(const WorkloadSpec& spec,
                                         const RunResult& run);

/// Per-layer metrics read from the untraced run's telemetry and responses.
[[nodiscard]] Metrics telemetry_metrics(const RunResult& run);

}  // namespace perfbench
