#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>

#include "common/ensure.hpp"
#include "core/flash_abft.hpp"
#include "core/kv_pool.hpp"
#include "core/meta_guard.hpp"
#include "scrub/scrubber.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor_ops.hpp"

namespace perfbench {

using namespace flashabft;
using namespace flashabft::serve;

namespace {


/// Median wall time of `call` in microseconds, over at most `max_reps`
/// calls and at least three; stops early once `budget_s` is spent.
struct Timing {
  double us = 0.0;
  std::size_t samples = 0;
};

template <typename F>
Timing time_calls(F&& call, std::size_t max_reps, double budget_s) {
  std::vector<double> us;
  const Clock::time_point begin = Clock::now();
  for (std::size_t r = 0; r < max_reps; ++r) {
    const Clock::time_point t = Clock::now();
    call();
    us.push_back(1e6 * seconds_between(t, Clock::now()));
    if (r >= 2 && seconds_between(begin, Clock::now()) > budget_s) break;
  }
  return {median(us), us.size()};
}

std::vector<std::size_t> random_tokens(std::size_t n, std::size_t vocab,
                                       Rng& rng) {
  std::vector<std::size_t> out(n);
  for (std::size_t& t : out) t = std::size_t(rng.next_below(vocab));
  return out;
}

// --- manual-mode replay ----------------------------------------------------

struct Replay {
  double wall_s = 0.0;
  std::vector<double> tick_ms;
  std::size_t tokens = 0;
  std::size_t cold_prefill_tokens = 0;    ///< prompt rows prefilled fully.
  std::size_t cached_prefill_tokens = 0;  ///< tail rows after a prefix hit.
  std::size_t resume_tokens = 0;          ///< estimated re-prefill rows.
  TelemetrySnapshot telemetry;
};

/// Drives `sessions` sessions of the workload through a ContinuousScheduler
/// in manual mode on this thread: `clients` in flight, a finished session
/// refilled after the tick that completed it. With an enabled recorder,
/// each tick, admission and session lifetime is a span.
Replay replay(const WorkloadSpec& spec, const ServerConfig& config,
              const TransformerModel& model, std::uint64_t seed,
              std::size_t sessions, SpanRecorder& spans) {
  ScopedSpan replay_span(spans, "replay");
  SessionTable table(spec.clients, sessions);
  ServeTelemetry telemetry;
  SchedulerConfig scfg = config.scheduler;
  scfg.manual = true;
  scfg.sweep_threads = 1;
  GuardedExecutor::Options options = executor_options_for(config);
  options.obs.profiler = telemetry.op_profiler();
  ContinuousScheduler scheduler(scfg, model, options, table, telemetry);

  struct Live {
    std::future<ServeResponse> future;
    std::size_t span = SpanRecorder::kNone;
    std::size_t prompt_len = 0;
    std::size_t max_new = 0;
  };
  std::vector<Live> live;
  std::size_t next = 0;
  Replay out;
  const auto admit_more = [&] {
    while (live.size() < spec.clients && next < sessions) {
      ScopedSpan admit_span(spans, "admit", next + 1);
      SessionInput input = make_session_input(spec, config, seed, next);
      auto session = std::make_unique<GenerationSession>();
      session->id = next + 1;
      session->work = std::move(input.work);
      session->seal_meta();
      session->enqueue_time = Clock::now();
      Live entry;
      entry.prompt_len = session->work.prompt.size();
      entry.max_new = session->work.max_new_tokens;
      entry.future = session->promise.get_future();
      entry.span = spans.begin("session", next + 1, SpanRecorder::kNone);
      SessionAdmission admission;
      FLASHABFT_ENSURE_MSG(scheduler.admit(session, admission) &&
                               admission.shed == nullptr,
                           "replay session refused");
      live.push_back(std::move(entry));
      ++next;
    }
  };

  const Clock::time_point begin = Clock::now();
  admit_more();
  while (!live.empty()) {
    {
      ScopedSpan tick_span(spans, "tick");
      const Clock::time_point t = Clock::now();
      (void)scheduler.run_tick();
      out.tick_ms.push_back(1e3 * seconds_between(t, Clock::now()));
    }
    for (std::size_t i = 0; i < live.size();) {
      if (live[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const ServeResponse response = live[i].future.get();
      spans.end(live[i].span);
      out.tokens += response.tokens.size();
      const std::size_t cached = response.prefix_cached_tokens;
      (cached > 0 ? out.cached_prefill_tokens : out.cold_prefill_tokens) +=
          live[i].prompt_len - cached;
      // A resume re-prefills prompt + generated-so-far; the replay cannot
      // see when it happened, so half the output is the estimate.
      out.resume_tokens +=
          response.resumes * (live[i].prompt_len + live[i].max_new / 2);
      live[i] = std::move(live.back());
      live.pop_back();
    }
    admit_more();
  }
  out.wall_s = seconds_between(begin, Clock::now());
  scheduler.shutdown();
  out.telemetry = telemetry.snapshot();
  return out;
}

// --- layer probes ----------------------------------------------------------

/// The shapes a workload produces, from its spec and the untraced run.
struct Shapes {
  std::size_t batch = 1;    ///< sessions per decode tick.
  std::size_t context = 1;  ///< mean cached rows a decode step reads.
  std::size_t prompt = 1;
  /// Page-aligned rows a prefix hit shares (cached prefill); at or past
  /// the prompt length the hit is the whole prompt, trimmed by one row.
  std::size_t shared = 0;
};

/// Per-call costs the per-token budget composes.
struct Costs {
  double decode_us_per_token = 0.0;
  double prefill_us_per_token = 0.0;
  double cached_prefill_us_per_token = 0.0;
  double attention_us = 0.0;
  double linear_us = 0.0;  ///< one batch x d x width product.
  double linear_macs_per_token = 0.0;
  double verify_us = 0.0;
  double append_us = 0.0;
  double meta_us = 0.0;
  double scrub_weights_us = 0.0;  ///< the weight-staleness item of a pass.
  double scrub_item_us = 0.0;     ///< a session's metadata or layer pages.
  double scrub_shared_page_us = 0.0;  ///< an idle shared-prefix page.
};

class Probes {
 public:
  Probes(const WorkloadSpec& spec, const ServerConfig& config,
         const Shapes& shapes, double budget_s, std::uint64_t seed)
      : spec_(spec),
        config_(config),
        shapes_(shapes),
        model_(config.model, config.model_seed),
        options_(executor_options_for(config)),
        executor_(options_),
        per_probe_s_(budget_s / 16.0),
        rng_(Rng(seed).derive(0x9A0BE5)) {}

  /// Times every probe into `m` and returns the costs the budget needs.
  Costs run(Metrics& m, SpanRecorder& spans) {
    const std::size_t vocab = config_.model.vocab_size;
    const std::size_t layers = config_.model.num_layers;
    const std::size_t width = config_.model.num_heads * config_.model.head_dim;
    const std::size_t head_dim = config_.model.head_dim;
    const double scale = 1.0 / std::sqrt(double(head_dim));
    const KernelContext context = executor_.kernel_context();

    // A pool holding `batch` sessions prefilled to the mean decode context.
    KvPagePool pool(model_.make_pool_config(config_.scheduler.page_size, 0,
                                            shapes_.batch + 2));
    std::vector<PagedKv> kvs;
    for (std::size_t i = 0; i < shapes_.batch; ++i) {
      kvs.push_back(pool.make_session(i + 1));
      (void)model_.prefill_paged(random_tokens(shapes_.context, vocab, rng_),
                                 AttentionBackend::kFlashAbft, executor_,
                                 pool, kvs.back());
    }

    {
      ScopedSpan span(spans, "model.decode_step_batch");
      std::vector<GuardedExecutor> executors(shapes_.batch,
                                             GuardedExecutor(options_));
      std::vector<const GuardedExecutor*> exec_ptrs;
      std::vector<PagedKv*> kv_ptrs;
      for (std::size_t i = 0; i < shapes_.batch; ++i) {
        exec_ptrs.push_back(&executors[i]);
        kv_ptrs.push_back(&kvs[i]);
      }
      const std::vector<std::size_t> tokens =
          random_tokens(shapes_.batch, vocab, rng_);
      // Each call appends a row, so a round of `steps` calls starts from
      // freshly prefilled sessions at the mean context and stays within a
      // few rows of it.
      const std::size_t steps = std::min<std::size_t>(
          8, config_.model.max_seq_len - shapes_.context - 1);
      std::vector<double> samples;
      const Clock::time_point begin = Clock::now();
      for (int round = 0; round < 8; ++round) {
        if (round > 0) {
          if (seconds_between(begin, Clock::now()) > 4 * per_probe_s_) break;
          for (PagedKv& kv : kvs) {
            pool.free_session(kv);
            (void)model_.prefill_paged(
                random_tokens(shapes_.context, vocab, rng_),
                AttentionBackend::kFlashAbft, executor_, pool, kv);
          }
        }
        for (std::size_t s = 0; s < steps; ++s) {
          for (PagedKv* kv : kv_ptrs) {
            if (pool.append_pages_needed(*kv) > 0) pool.reserve_append(*kv);
          }
          const Clock::time_point t = Clock::now();
          (void)model_.decode_step_batch(tokens, exec_ptrs,
                                         AttentionBackend::kFlashAbft, pool,
                                         kv_ptrs);
          samples.push_back(1e6 * seconds_between(t, Clock::now()));
        }
      }
      const Timing t{median(samples), samples.size()};
      costs_.decode_us_per_token = t.us / double(shapes_.batch);
      put(m, "model.decode_batch_us_per_token", costs_.decode_us_per_token,
          "us", t.samples);
    }

    const PagedKv& kv0 = kvs.front();
    std::vector<double> q(head_dim);
    for (double& x : q) x = rng_.next_gaussian();
    const std::vector<KvPagePool::Chunk> chunks = pool.chunks(kv0, 0);
    const auto attend = [&](const KernelContext& ctx) {
      return paged_flash_abft_head(q, chunks, width, 0, head_dim, scale, ctx);
    };
    {
      ScopedSpan span(spans, "kernels.paged_flash_abft_head");
      const Timing t = time_calls([&] { (void)attend(context); }, 2000,
                                  per_probe_s_);
      costs_.attention_us = t.us;
      put(m, "kernels.paged_attention_us", t.us, "us", t.samples);
    }
    {
      ScopedSpan span(spans, "kernels.flash_abft_attention");
      MatrixD qm(shapes_.prompt, head_dim), km(shapes_.prompt, head_dim),
          vm(shapes_.prompt, head_dim);
      fill_gaussian(qm, rng_);
      fill_gaussian(km, rng_);
      fill_gaussian(vm, rng_);
      AttentionConfig cfg;
      cfg.seq_len = shapes_.prompt;
      cfg.head_dim = head_dim;
      cfg.scale = scale;
      cfg.mask = AttentionMask::kCausal;
      FlashAbftOptions fa;
      fa.context = context;
      const Timing t = time_calls(
          [&] { (void)flash_abft_attention(qm, km, vm, cfg, fa); }, 200,
          per_probe_s_);
      put(m, "kernels.flash_abft_prefill_us", t.us, "us", t.samples);
    }
    {
      ScopedSpan span(spans, "kernels.backend_linear_fused");
      MatrixD x(shapes_.batch, config_.model.model_dim);
      MatrixD w(config_.model.model_dim, width);
      fill_gaussian(x, rng_);
      fill_gaussian(w, rng_);
      const Timing t = time_calls(
          [&] {
            (void)backend_linear_fused(x, w, {}, context.backend,
                                       context.dtype);
          },
          4000, per_probe_s_);
      costs_.linear_us = t.us;
      put(m, "kernels.linear_fused_us", t.us, "us", t.samples);
    }
    {
      // Computed from tensor sizes (8-byte backing elements; the model
      // stores every dtype in binary64 and rounds values, not widths).
      const double d = double(config_.model.model_dim);
      const double hd = double(width);
      const double ffn = double(config_.model.ffn_dim);
      const double macs_linear =
          double(layers) * (4.0 * d * hd + 2.0 * d * ffn) + d * double(vocab);
      const double macs_attention =
          double(layers) * 2.0 * double(shapes_.context) * hd;
      costs_.linear_macs_per_token = macs_linear;
      put(m, "kernels.flops_per_token", 2.0 * (macs_linear + macs_attention),
          "flop", 1, "computed");
      const double weight_bytes = 8.0 * macs_linear / double(shapes_.batch);
      const double kv_bytes =
          8.0 * double(layers) * 2.0 * hd * double(shapes_.context + 1);
      put(m, "kernels.bytes_per_token", weight_bytes + kv_bytes, "B", 1,
          "computed");
    }

    // --- kv pool ---
    {
      ScopedSpan span(spans, "kv_pool.verify");
      const Timing t = time_calls([&] { (void)pool.verify(kv0, 0); }, 2000,
                                  per_probe_s_);
      costs_.verify_us = t.us;
      put(m, "kv_pool.verify_us", t.us, "us", t.samples);
    }
    {
      ScopedSpan span(spans, "kv_pool.restore");
      PagedKv& kv = kvs.front();
      std::size_t row = 0;
      const Timing t = time_calls(
          [&] {
            pool.corrupt_k(kv, 0, row++ % kv.len(0), 0, 1.0);
            pool.restore(kv, 0);
          },
          1000, per_probe_s_);
      put(m, "kv_pool.restore_us", t.us, "us", t.samples);
    }
    {
      ScopedSpan span(spans, "kv_pool.append");
      KvPagePool scratch(model_.make_pool_config(config_.scheduler.page_size,
                                                 0, 2));
      std::vector<double> k_row(width), v_row(width);
      for (double& x : k_row) x = rng_.next_gaussian();
      for (double& x : v_row) x = rng_.next_gaussian();
      // Mean over a full-length fill, so page allocation is amortized the
      // way a session's appends see it.
      std::vector<double> samples;
      const Clock::time_point begin = Clock::now();
      do {
        PagedKv kv = scratch.make_session(1);
        const Clock::time_point t = Clock::now();
        for (std::size_t r = 0; r < config_.model.max_seq_len; ++r) {
          scratch.append(kv, 0, k_row, v_row);
        }
        samples.push_back(1e6 * seconds_between(t, Clock::now()) /
                          double(config_.model.max_seq_len));
        scratch.free_session(kv);
      } while (samples.size() < 3 ||
               (samples.size() < 200 &&
                seconds_between(begin, Clock::now()) < per_probe_s_));
      costs_.append_us = median(samples);
      put(m, "kv_pool.append_us", costs_.append_us, "us", samples.size());
    }
    prefix_probes(m, spans);

    // --- guarded executor, on the paged attention kernel ---
    {
      ScopedSpan span(spans, "guard");
      const double cost = 2.0 * double(chunks.size()) * double(head_dim);
      const auto guarded = [&](const GuardedExecutor& ex, bool fallback) {
        return ex.run(
            OpKind::kAttentionFlashAbft, 0, cost,
            [&](std::size_t) { return attend(ex.kernel_context()); },
            fallback ? GuardedExecutor::FallbackOp(
                           [&] { return attend(ex.fallback_context()); })
                     : GuardedExecutor::FallbackOp());
      };
      const auto tampered = [&](std::size_t attempts) {
        GuardedExecutor ex(options_);
        LayerFault fault;
        fault.kind = OpKind::kAttentionFlashAbft;
        fault.op_index = 0;
        fault.faulty_attempts = attempts;
        ex.set_tamper(make_layer_fault_tamper({fault}));
        return ex;
      };
      // Bare and guarded calls interleave so drift hits both alike.
      std::vector<double> bare, clean;
      const Clock::time_point begin = Clock::now();
      while (bare.size() < 3 ||
             (bare.size() < 2000 &&
              seconds_between(begin, Clock::now()) < 2 * per_probe_s_)) {
        Clock::time_point t = Clock::now();
        (void)attend(context);
        bare.push_back(1e6 * seconds_between(t, Clock::now()));
        t = Clock::now();
        (void)guarded(executor_, false);
        clean.push_back(1e6 * seconds_between(t, Clock::now()));
      }
      const double clean_us = median(clean);
      const double overhead_us = clean_us - median(bare);
      put(m, "guard.clean_run_overhead_us", overhead_us, "us",
          bare.size());
      const GuardedExecutor retry = tampered(1);
      const Timing tr = time_calls([&] { (void)guarded(retry, false); }, 1000,
                                   per_probe_s_);
      put(m, "guard.retry_us", tr.us - clean_us, "us", tr.samples);
      const GuardedExecutor persistent =
          tampered(options_.recovery.max_retries + 1);
      const Timing tf = time_calls([&] { (void)guarded(persistent, true); },
                                   1000, per_probe_s_);
      put(m, "guard.fallback_us", tf.us - clean_us, "us", tf.samples);
    }

    // --- sealed metadata, at a mid-decode session's size ---
    SessionMeta meta;
    meta.prompt = random_tokens(shapes_.prompt, vocab, rng_);
    meta.max_new_tokens = spec_.max_new;
    meta.tokens =
        random_tokens(shapes_.context - shapes_.prompt, vocab, rng_);
    {
      ScopedSpan span(spans, "meta.guarded_meta_verify");
      GuardedRecord<SessionMeta> record(meta);
      const Timing t = time_calls(
          [&] {
            LayerReport report;
            (void)guarded_meta_verify(record, 0, executor_, report);
          },
          4000, per_probe_s_);
      costs_.meta_us = t.us;
      put(m, "meta.verify_us", t.us, "us", t.samples);
    }

    // --- scrubber: one pass over the batch's live items ---
    {
      ScopedSpan span(spans, "scrub.run_tick");
      const auto verify_weights = [&] {
        LayerReport report;
        return guarded_weight_verify(model_, 0, executor_, report)
                   ? scrub::ItemOutcome::kClean
                   : scrub::ItemOutcome::kUnrepairable;
      };
      std::vector<GuardedRecord<SessionMeta>> metas(
          shapes_.batch, GuardedRecord<SessionMeta>(meta));
      // The scheduler's walk list: the shared weights once, then each
      // session's sealed metadata and every layer's pages.
      scrub::Scrubber scrubber(
          [&] {
            std::vector<scrub::ScrubItem> items{{verify_weights}};
            for (std::size_t s = 0; s < kvs.size(); ++s) {
              items.push_back({[&, s] {
                LayerReport report;
                return guarded_meta_verify(metas[s], s, executor_, report)
                           ? scrub::ItemOutcome::kClean
                           : scrub::ItemOutcome::kUnrepairable;
              }});
              for (std::size_t l = 0; l < layers; ++l) {
                items.push_back({[&, s, l] {
                  LayerReport report;
                  return guarded_page_verify(pool, kvs[s], l, l, executor_,
                                             report)
                             ? scrub::ItemOutcome::kClean
                             : scrub::ItemOutcome::kUnrepairable;
                }});
              }
            }
            return items;
          },
          scrub::Scrubber::Options{});
      const Timing pass = time_calls([&] { (void)scrubber.run_tick(); }, 1000,
                                     per_probe_s_);
      const Timing weights =
          time_calls([&] { (void)verify_weights(); }, 1000, per_probe_s_);
      costs_.scrub_weights_us = weights.us;
      costs_.scrub_item_us = std::max(0.0, pass.us - weights.us) /
                             double(shapes_.batch * (layers + 1));
      put(m, "scrub.pass_ms", pass.us / 1e3, "ms", pass.samples);
    }

    // --- numerics: bf16 write-back rounding of model-width rows ---
    {
      ScopedSpan span(spans, "numerics.dtype_round_span");
      MatrixD rows(1024, config_.model.model_dim);
      fill_gaussian(rows, rng_);
      const Timing t = time_calls(
          [&] {
            for (std::size_t r = 0; r < rows.rows(); ++r) {
              dtype_round_span(
                  std::span<double>(&rows(r, 0), rows.cols()), DType::kBf16);
            }
          },
          400, per_probe_s_);
      put(m, "numerics.quantize_us_per_row", t.us / double(rows.rows()), "us",
          t.samples);
    }
    return costs_;
  }

 private:
  /// Cold prefill, cached-tail prefill and the prefix index at the
  /// workload's prompt shape. Workloads without shared stems still get a
  /// cached-prefill figure: their hit maps the prompt's first page.
  void prefix_probes(Metrics& m, SpanRecorder& spans) {
    const std::size_t vocab = config_.model.vocab_size;
    KvPoolConfig cfg =
        model_.make_pool_config(config_.scheduler.page_size, 0, 8);
    cfg.prefix_cache = true;
    KvPagePool pool(cfg);
    std::uint64_t id = 1;
    {
      ScopedSpan span(spans, "model.prefill_paged");
      const std::vector<std::size_t> prompt =
          random_tokens(shapes_.prompt, vocab, rng_);
      const Timing t = time_calls(
          [&] {
            PagedKv kv = pool.make_session(id++);
            (void)model_.prefill_paged(prompt, AttentionBackend::kFlashAbft,
                                       executor_, pool, kv);
            pool.free_session(kv);
          },
          200, 2 * per_probe_s_);
      costs_.prefill_us_per_token = t.us / double(shapes_.prompt);
      put(m, "model.prefill_us_per_token", costs_.prefill_us_per_token, "us",
          t.samples);
    }
    // Prompts that share the first `shared` rows and diverge after; when
    // the shared part is the whole prompt, the published prompt itself.
    const std::vector<std::size_t> stem =
        random_tokens(std::min(shapes_.shared, shapes_.prompt), vocab, rng_);
    const auto with_stem = [&] {
      std::vector<std::size_t> p = stem;
      const std::vector<std::size_t> tail =
          random_tokens(shapes_.prompt - stem.size(), vocab, rng_);
      p.insert(p.end(), tail.begin(), tail.end());
      return p;
    };
    std::vector<std::size_t> published;
    {
      ScopedSpan span(spans, "kv_pool.publish_prefix");
      std::vector<double> samples;
      const Clock::time_point begin = Clock::now();
      do {
        const std::vector<std::size_t> prompt = with_stem();
        PagedKv kv = pool.make_session(id++);
        (void)model_.prefill_paged(prompt, AttentionBackend::kFlashAbft,
                                   executor_, pool, kv);
        const Clock::time_point t = Clock::now();
        pool.publish_prefix(kv, prompt);
        samples.push_back(1e6 * seconds_between(t, Clock::now()));
        published = prompt;
        pool.free_session(kv);
      } while (samples.size() < 3 ||
               (samples.size() < 50 &&
                seconds_between(begin, Clock::now()) < per_probe_s_));
      put(m, "kv_pool.publish_prefix_us", median(samples), "us",
          samples.size());
    }
    {
      // Published pages no session maps: the scrubber's idle walk.
      const std::vector<std::size_t> idle = pool.idle_shared_pages();
      std::size_t next = 0;
      const Timing t = time_calls(
          [&] { (void)pool.scrub_shared_page(idle[next++ % idle.size()]); },
          idle.empty() ? 0 : 2000, per_probe_s_);
      costs_.scrub_shared_page_us = t.us;
    }
    {
      ScopedSpan span(spans, "model.prefill_paged_cached");
      // rag-shaped prompts hit the published stem; unique-prompt workloads
      // look up a prompt nobody published (their real case: a miss).
      const bool shares = spec_.stem_len > 0;
      std::vector<double> acquire, tail_us;
      const Clock::time_point begin = Clock::now();
      do {
        std::vector<std::size_t> prompt =
            shares ? with_stem() : random_tokens(shapes_.prompt, vocab, rng_);
        PagedKv kv = pool.make_session(id++);
        Clock::time_point t = Clock::now();
        std::size_t cached = pool.acquire_prefix(kv, prompt);
        acquire.push_back(1e6 * seconds_between(t, Clock::now()));
        if (cached == 0) {
          // Map the stem through a hit for the tail-prefill figure.
          pool.free_session(kv);
          kv = pool.make_session(id++);
          prompt = stem.size() < shapes_.prompt ? with_stem() : published;
          cached = pool.acquire_prefix(kv, prompt);
          FLASHABFT_ENSURE_MSG(cached > 0, "published prefix did not hit");
        }
        t = Clock::now();
        (void)model_.prefill_paged_cached(prompt, cached,
                                          AttentionBackend::kFlashAbft,
                                          executor_, pool, kv);
        tail_us.push_back(1e6 * seconds_between(t, Clock::now()) /
                          double(prompt.size() - cached));
        pool.free_session(kv);
      } while (acquire.size() < 3 ||
               (acquire.size() < 50 &&
                seconds_between(begin, Clock::now()) < 2 * per_probe_s_));
      put(m, "kv_pool.acquire_prefix_us", median(acquire), "us",
          acquire.size());
      costs_.cached_prefill_us_per_token = median(tail_us);
      put(m, "model.cached_prefill_us_per_token",
          costs_.cached_prefill_us_per_token, "us", tail_us.size());
    }
  }

  const WorkloadSpec& spec_;
  const ServerConfig& config_;
  Shapes shapes_;
  TransformerModel model_;
  GuardedExecutor::Options options_;
  GuardedExecutor executor_;
  double per_probe_s_;
  Rng rng_;
  Costs costs_;
};

}  // namespace

Metrics memory_probes(const WorkloadSpec& spec) {
  const ServerConfig config = make_server_config(spec);
  const auto grown_since = [](std::size_t before) {
    const std::size_t after = rss_bytes();
    return after > before ? double(after - before) : 0.0;
  };
  Metrics m;
  std::size_t before = rss_bytes();
  {
    const TransformerModel model(config.model, config.model_seed);
    put(m, "mem.model_rss_mb", grown_since(before) / (1024.0 * 1024.0), "MiB",
        1);
  }
  // Both pools stay alive while the second is built, so neither reuses
  // memory the other freed.
  constexpr std::size_t kPages = 512;
  KvPoolConfig cfg;
  cfg.num_pages = kPages;
  cfg.page_size = config.scheduler.page_size;
  cfg.width = config.model.num_heads * config.model.head_dim;
  cfg.num_layers = config.model.num_layers;
  std::vector<std::unique_ptr<KvPagePool>> pools;
  for (const DType dtype : {DType::kF32, DType::kBf16}) {
    cfg.dtype = dtype;
    before = rss_bytes();
    pools.push_back(std::make_unique<KvPagePool>(cfg));
    const double page_rss = grown_since(before) / double(kPages);
    const double nominal = double(cfg.page_bytes());
    const std::string suffix = dtype_name(dtype);
    put(m, "kv_pool.page_rss_bytes_" + suffix, page_rss, "B", kPages);
    put(m, "kv_pool.page_nominal_bytes_" + suffix, nominal, "B", 1,
        "computed");
    put(m, "kv_pool.page_rss_over_nominal_" + suffix, page_rss / nominal,
        "1", kPages);
  }
  return m;
}

TracedPass run_traced_pass(const WorkloadSpec& spec, std::uint64_t seed,
                           const RunResult& tel, double budget_s,
                           SpanRecorder& spans) {
  const ServerConfig config = make_server_config(spec);
  const TransformerModel model(config.model, config.model_seed);
  TracedPass out;
  Metrics& m = out.metrics;

  // Replays alternate untraced / traced twice over the same sessions, so
  // the tracing overhead compares like with like. At least 16 sessions, so
  // a 2-client mix still gives the tick percentiles and the budget more
  // than a handful of ticks.
  const std::size_t sessions = std::max<std::size_t>(16, 2 * spec.clients);
  SpanRecorder off(false);
  std::vector<Replay> plain, traced;
  for (int round = 0; round < 2; ++round) {
    plain.push_back(replay(spec, config, model, seed, sessions, off));
    traced.push_back(
        replay(spec, config, model, seed, sessions, spans));
  }
  double plain_s = 0.0, traced_s = 0.0;
  std::vector<double> ticks;
  for (int r = 0; r < 2; ++r) {
    plain_s += plain[r].wall_s;
    traced_s += traced[r].wall_s;
    ticks.insert(ticks.end(), traced[r].tick_ms.begin(),
                 traced[r].tick_ms.end());
  }
  put(m, "trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%",
      2 * sessions);
  put(m, "serve.tick_ms_p50", quantile(ticks, 0.50), "ms", ticks.size());
  put(m, "serve.tick_ms_p95", quantile(ticks, 0.95), "ms", ticks.size());

  Shapes shapes;
  shapes.batch = std::clamp<std::size_t>(
      std::size_t(std::lround(tel.telemetry.batch_occupancy())), 1,
      config.scheduler.max_batch_tokens);
  shapes.prompt = spec.prompt_len;
  shapes.context =
      std::min(spec.prompt_len + std::size_t(spec.mean_new() / 2.0),
               config.model.max_seq_len - 4);
  shapes.shared =
      spec.stem_len > 0 ? spec.stem_len : config.scheduler.page_size;
  const double replay_s = plain_s + traced_s;
  Probes probes(spec, config, shapes,
                std::max(0.5, budget_s - replay_s), seed);
  const Costs costs = probes.run(m, spans);

  // Per-token budget of the traced replay: calls per generated token x
  // cost per call, set against the measured tick time per token.
  const Replay& r = traced.back();
  const TelemetrySnapshot& t = r.telemetry;
  const double tokens = double(std::max<std::size_t>(1, r.tokens));
  double tick_us = 0.0;
  for (const double ms : r.tick_ms) tick_us += 1e3 * ms;
  const double steps = double(t.scheduled_steps);
  const double layers = double(config.model.num_layers);
  const double heads = double(config.model.num_heads);
  const double batch = double(shapes.batch);
  struct Part {
    const char* name;
    double us;
  };
  const double decode = steps * costs.decode_us_per_token;
  const std::vector<Part> decode_parts = {
      {"attention", steps * layers * heads * costs.attention_us},
      // Every stacked product of a step, scaled from the measured
      // QKV-shaped product (batch x d x width MACs) by multiply-accumulates.
      {"linear", steps * costs.linear_macs_per_token * costs.linear_us /
                     (batch * double(config.model.model_dim) *
                      double(config.model.num_heads * config.model.head_dim))},
      {"kv_verify", steps * layers * costs.verify_us},
      {"kv_append", steps * layers * costs.append_us},
  };
  const double passes = double(t.scrub_passes);
  const double session_items = std::min(
      double(t.scrub_items) - std::min(double(t.scrub_items), passes),
      steps * (layers + 1.0));
  const double shared_items =
      std::max(0.0, double(t.scrub_items) - passes - session_items);
  const double scrub_us = passes * costs.scrub_weights_us +
                          session_items * costs.scrub_item_us +
                          shared_items * costs.scrub_shared_page_us;
  double decode_children = 0.0;
  for (const Part& p : decode_parts) decode_children += p.us;
  const std::vector<Part> parts = {
      {"decode", decode},
      {"prefill", double(r.cold_prefill_tokens + r.resume_tokens) *
                      costs.prefill_us_per_token +
                  double(r.cached_prefill_tokens) *
                      costs.cached_prefill_us_per_token},
      {"meta", double(t.meta_verifies) * costs.meta_us},
      // Every pass walks the weights once, then each running session's
      // metadata and layer pages (about one per decode step and item),
      // then idle shared pages; the replay's telemetry counts the items.
      {"scrub", scrub_us},
  };
  double attributed = 0.0;
  for (const Part& p : parts) attributed += p.us;
  std::ostringstream budget;
  budget << "{\"tick_us_per_token\": " << json_number(tick_us / tokens)
         << ", \"tokens\": " << r.tokens << ", \"ticks\": " << r.tick_ms.size()
         << ", \"parts_us_per_token\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double us) {
    budget << (first ? "" : ", ") << json_string(name) << ": "
           << json_number(us / tokens);
    first = false;
    put(m, "budget." + name + "_us_per_token", us / tokens, "us",
        r.tick_ms.size());
  };
  for (const Part& p : parts) emit(p.name, p.us);
  for (const Part& p : decode_parts) {
    emit(std::string("decode.") + p.name, p.us);
  }
  emit("decode.glue", decode - decode_children);
  emit("unattributed", tick_us - attributed);
  budget << "}}";
  put(m, "budget.tick_us_per_token", tick_us / tokens, "us",
      r.tick_ms.size());
  out.budget_json = budget.str();
  out.spans_json = spans.summary_json();
  return out;
}

}  // namespace perfbench
