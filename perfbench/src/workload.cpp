#include "workload.hpp"

#include <cmath>

#include "common/ensure.hpp"
#include "fault/calibrate.hpp"
#include "serve/load_driver.hpp"

namespace perfbench {

using namespace flashabft;
using namespace flashabft::serve;

namespace {

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec chat;
  chat.name = "chat";
  chat.prompt_len = 16;
  chat.min_new = 64;
  chat.max_new = 128;
  // SLO limits sit near twice each workload's p95 on a contended host, so
  // slo_met_frac flags a doubling of tail latency, not host noise.
  chat.slo_ttft_ms = 20.0;
  chat.slo_tpot_ms = 8.0;
  specs.push_back(chat);

  WorkloadSpec rag;
  rag.name = "rag";
  rag.dtype = DType::kBf16;
  // A closed loop of 2 clients: the scheduler prefills one tail at a time,
  // so a new session either starts at once (most of them: TTFT is the
  // cached-tail prefill) or waits behind the other client's prefill (the
  // p95). With 4 clients about half the sessions waited, the median sat on
  // the edge between the two modes and swung 0.24-0.41 of itself over ten
  // runs. A fixed-rate Poisson schedule turned the host's speed swings
  // into non-linear queueing (TPOT p50/p95 spread 0.5-0.7 over ten runs);
  // the closed loop paces itself. Lengths spread around 8 so the two
  // clients do not fall into lockstep.
  rag.clients = 2;
  rag.prompt_len = 256;
  rag.templates = 8;
  rag.stem_len = 192;
  rag.min_new = 4;
  rag.max_new = 12;
  rag.slo_ttft_ms = 60.0;
  rag.slo_tpot_ms = 10.0;
  specs.push_back(rag);

  WorkloadSpec longctx;
  longctx.name = "longctx_faults";
  longctx.prompt_len = 128;
  // Lengths spread around 32 so sessions do not finish in lockstep waves.
  longctx.min_new = 24;
  longctx.max_new = 40;
  longctx.kv_budget_share = 0.5;
  longctx.fault_fraction = 1.0 / 3.0;
  longctx.slo_ttft_ms = 400.0;
  longctx.slo_tpot_ms = 12.0;
  specs.push_back(longctx);
  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = make_specs();
  return all;
}

}  // namespace

const WorkloadSpec& workload_by_name(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return spec;
  }
  FLASHABFT_ENSURE_MSG(false, "unknown workload '" << name << "'");
  return specs().front();
}

ServerConfig make_server_config(const WorkloadSpec& spec) {
  ServerConfig config;
  config.num_workers = 2;
  config.compute = ComputeBackend::kSimd;
  config.dmr_glue = true;
  config.dtype = spec.dtype;
  config.max_sessions = 16;
  config.model.vocab_size = 256;
  config.model.model_dim = 64;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.head_dim = 32;
  config.model.ffn_dim = 128;
  config.model.max_seq_len = spec.prompt_len + spec.max_new + 8;
  config.model.dtype = spec.dtype;
  config.scheduler.mode = SchedulerMode::kContinuous;
  config.scheduler.max_batch_tokens = 16;
  config.scheduler.prefix_cache = true;
  config.scheduler.scrub = true;
  if (spec.kv_budget_share > 0.0) {
    // Demand of one full-length session across all layers, in bytes at the
    // storage dtype; the budget backs `share` of all slots' demand.
    KvPoolConfig pool;
    pool.page_size = config.scheduler.page_size;
    pool.width = config.model.num_heads * config.model.head_dim;
    pool.num_layers = config.model.num_layers;
    pool.dtype = spec.dtype;
    const std::size_t pages_per_session =
        pool.num_layers *
        ((spec.prompt_len + spec.max_new + pool.page_size - 1) /
         pool.page_size);
    const double demand =
        double(spec.clients * pages_per_session * pool.page_bytes());
    config.scheduler.kv_budget_bytes =
        std::size_t(std::llround(spec.kv_budget_share * demand));
  }
  return config;
}

GuardedExecutor::Options executor_options_for(const ServerConfig& config) {
  GuardedExecutor::Options options;
  options.checker = config.software_checker;
  options.recovery = config.recovery;
  options.screen_extremes = config.screen_extremes;
  options.screen = config.screen;
  options.compute = config.compute;
  options.dmr_glue = config.dmr_glue;
  options.dtype = config.dtype;
  if (config.dtype != DType::kF32) {
    options.tolerances =
        derive_tolerances(config.dtype, tolerance_shape_for(config.model));
  }
  return options;
}

SessionInput make_session_input(const WorkloadSpec& spec,
                                const ServerConfig& config,
                                std::uint64_t seed, std::size_t index) {
  const Rng base(seed);
  Rng rng = base.derive(1 + index);
  SessionInput input;
  GenerationWork& work = input.work;
  const std::size_t vocab = config.model.vocab_size;
  work.prompt.reserve(spec.prompt_len);
  if (spec.templates > 0) {
    // The stem stream depends only on the template index, so sessions of
    // one template share byte-identical first stem_len tokens.
    const std::size_t t = std::size_t(rng.next_below(spec.templates));
    Rng stem = base.derive(0x57E0000 + t);
    for (std::size_t i = 0; i < spec.stem_len; ++i) {
      work.prompt.push_back(std::size_t(stem.next_below(vocab)));
    }
  }
  while (work.prompt.size() < spec.prompt_len) {
    work.prompt.push_back(std::size_t(rng.next_below(vocab)));
  }
  work.max_new_tokens =
      spec.min_new +
      std::size_t(rng.next_below(spec.max_new - spec.min_new + 1));

  if (spec.fault_fraction > 0.0 && rng.next_double() < spec.fault_fraction) {
    input.fault = FaultClass(1 + rng.next_below(5));
    const double magnitude = 1e-3;  // emulated datapath shift.
    const double delta = 1.0;       // KV element shift.
    switch (input.fault) {
      case FaultClass::kTransientOp:
      case FaultClass::kPersistentOp:
        work.faults.push_back(draw_generation_fault(
            config.model, config.recovery, magnitude,
            input.fault == FaultClass::kPersistentOp, work.max_new_tokens,
            rng));
        break;
      case FaultClass::kKvData:
        work.kv_corruptions.push_back(
            draw_kv_corruption(config.model, work.max_new_tokens, delta, rng));
        break;
      case FaultClass::kPageTable:
        work.kv_corruptions.push_back(draw_kv_corruption(
            config.model, work.max_new_tokens, delta, rng,
            /*page_table=*/true));
        break;
      case FaultClass::kChecksumState:
        work.kv_corruptions.push_back(draw_kv_corruption(
            config.model, work.max_new_tokens, delta, rng,
            /*page_table=*/false, /*checksum_state=*/true));
        break;
      case FaultClass::kNone:
        break;
    }
  }
  return input;
}

}  // namespace perfbench
