// The traced pass: per-layer metrics timed from outside each layer, at the
// shapes a workload produces, plus the per-token budget and the measured
// tracing overhead. Runs separately from the untraced end-to-end run.
#pragma once

#include <string>

#include "e2e.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

/// Memory figures that must be read before the process allocates anything
/// else: RSS growth of building the model and of building page pools at
/// f32 and bf16, beside the pools' nominal page_bytes.
[[nodiscard]] Metrics memory_probes(const WorkloadSpec& spec);

struct TracedPass {
  Metrics metrics;
  std::string budget_json;   ///< per-token budget with its remainder.
  std::string spans_json;    ///< per span name: count, total and self ms.
};

/// Replays the workload's sessions through a manual-mode scheduler (with
/// and without spans), then times every public layer call at the shapes
/// the untraced run `tel` measured. Spans go to `spans`.
[[nodiscard]] TracedPass run_traced_pass(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         const RunResult& tel,
                                         double budget_s,
                                         SpanRecorder& spans);

}  // namespace perfbench
