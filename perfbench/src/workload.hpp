// The benchmark's three traffic mixes and the inputs they generate.
//
// Every workload runs the serve-bench model shape (vocab 256, dim 64, two
// layers of 2x32 heads, FFN 128) on the continuous-batching engine with
// the SIMD backend, DMR glue, the shared-prefix cache and the background
// scrubber on, 16 session slots and a 16-token decode batch. What differs
// is the traffic, chosen so each stresses different layers:
//
//   chat            closed loop, 16 clients, unique 16-token prompts,
//                   64..128 new tokens, f32. ~95% of the work is the
//                   decode tick (batched decode, per-session kKvPage
//                   verify, paged Flash-ABFT, seals, sweep threads);
//                   prefill, prefix cache and recovery are nearly idle.
//   rag             closed loop, 2 clients, 192-token stem from one of 8
//                   templates plus a unique 64-token tail, 4..12 new
//                   tokens, bf16. TTFT is prefix-cache lookup and publish,
//                   copy-on-write, the cached-tail prefill and bf16
//                   rounding (its p95 also the wait behind the other
//                   client's prefill); TPOT is decode stalled behind the
//                   other client's tail prefill.
//   longctx_faults  closed loop, 16 clients, unique 128-token prompts, 24..40
//                   new tokens, f32, a KV byte budget of half the 16
//                   sessions' demand (preemption + lossless resume recur)
//                   and one seeded fault in about a third of the sessions:
//                   the only mix where the n x n prefill kernel, resume
//                   re-prefill, pool alloc/free/restore, guarded
//                   retry/fallback and scrub repairs do real work.
//
// Inputs are a pure function of (workload, seed, session index): the
// engine only ever sees the generated GenerationWork.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  flashabft::DType dtype = flashabft::DType::kF32;
  std::size_t clients = 16;  ///< sessions kept in flight (closed loop).
  std::size_t prompt_len = 16;
  std::size_t templates = 0;  ///< shared stems; 0 = fully unique prompts.
  std::size_t stem_len = 0;
  std::size_t min_new = 8;    ///< new tokens drawn uniform in [min, max].
  std::size_t max_new = 8;
  /// KV byte budget as a share of `clients` full-length sessions' demand;
  /// 0 = the derived pool that never preempts.
  double kv_budget_share = 0.0;
  double fault_fraction = 0.0;  ///< sessions carrying one seeded fault.
  /// Latency limits of the slo_met_frac metric (TTFT, mean inter-token gap).
  double slo_ttft_ms = 0.0;
  double slo_tpot_ms = 0.0;

  [[nodiscard]] double mean_new() const {
    return 0.5 * double(min_new + max_new);
  }
};

/// The workload named `name`; throws EnsureError for an unknown name.
[[nodiscard]] const WorkloadSpec& workload_by_name(const std::string& name);

/// The server every run of `spec` builds (one per setup repetition).
[[nodiscard]] flashabft::serve::ServerConfig make_server_config(
    const WorkloadSpec& spec);

/// The executor options the server builds for `config` (derived
/// tolerances at low precision), without its profiler and trace taps.
[[nodiscard]] flashabft::GuardedExecutor::Options executor_options_for(
    const flashabft::serve::ServerConfig& config);

/// The fault class a session carries (longctx_faults only).
enum class FaultClass {
  kNone,
  kTransientOp,
  kPersistentOp,
  kKvData,
  kPageTable,
  kChecksumState,
};

/// One generated session: what is submitted, plus its fault class.
struct SessionInput {
  flashabft::serve::GenerationWork work;
  FaultClass fault = FaultClass::kNone;
};

/// Session `index` of `spec` under `seed`.
[[nodiscard]] SessionInput make_session_input(
    const WorkloadSpec& spec, const flashabft::serve::ServerConfig& config,
    std::uint64_t seed, std::size_t index);

}  // namespace perfbench
