#include "e2e.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <thread>

#include "common/ensure.hpp"
#include "fault/calibrate.hpp"

namespace perfbench {

using namespace flashabft;
using namespace flashabft::serve;

namespace {

/// Fills the outcome and latency fields of `out` from `response`.
void absorb_response(const ServeResponse& response, SessionOutcome& out) {
  out.tokens = response.tokens;
  out.clean = response.checksum_clean;
  out.ttft_ms = response.ttft_us / 1e3;
  out.tpot_ms = out.tokens.size() > 1
                    ? (response.total_us - response.ttft_us) / 1e3 /
                          double(out.tokens.size() - 1)
                    : 0.0;
  out.queue_ms = response.queue_us / 1e3;
  out.total_ms = response.total_us / 1e3;
}

struct Inflight {
  std::future<ServeResponse> future;
  std::size_t slot = 0;  ///< index into RunResult::sessions.
};

/// Session generation, submission and collection for the load loop.
class Driver {
 public:
  Driver(InferenceServer& server, const WorkloadSpec& spec,
         std::uint64_t seed, Clock::time_point start, RunResult& result)
      : server_(server),
        spec_(spec),
        seed_(seed),
        start_(start),
        result_(result) {}

  /// Generates and submits session number sessions.size().
  Inflight send(bool measured) {
    const std::size_t index = result_.sessions.size();
    SessionInput input =
        make_session_input(spec_, server_.config(), seed_, index);
    SessionOutcome outcome;
    outcome.fault = input.fault;
    outcome.prompt = input.work.prompt;
    outcome.measured = measured;
    ServeRequest request;
    request.id = index + 1;
    request.category = spec_.name;
    request.work = std::move(input.work);
    Inflight inflight;
    inflight.slot = index;
    outcome.sent_s = seconds_between(start_, Clock::now());
    result_.sessions.push_back(std::move(outcome));
    try {
      inflight.future = server_.submit(std::move(request));
    } catch (const std::exception&) {
      std::promise<ServeResponse> refused;
      refused.set_exception(std::current_exception());
      inflight.future = refused.get_future();
    }
    return inflight;
  }

  /// Collects a ready future.
  void collect(Inflight& inflight) {
    SessionOutcome& out = result_.sessions[inflight.slot];
    try {
      absorb_response(inflight.future.get(), out);
    } catch (const std::exception&) {
      out.threw = true;
    }
  }

  [[nodiscard]] double now_s() const {
    return seconds_between(start_, Clock::now());
  }

 private:
  InferenceServer& server_;
  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  Clock::time_point start_;
  RunResult& result_;
};

constexpr auto kPollWait = std::chrono::microseconds(200);

/// Closed loop: `clients` sessions in flight; ANY completion is refilled at
/// once (a FIFO wait on the oldest would under-drive the server when
/// sessions of different lengths finish out of order).
void run_closed(Driver& driver, const WorkloadSpec& spec, RunResult& result) {
  const double t1 = result.warmup_s + result.window_s;
  std::vector<Inflight> inflight;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    inflight.push_back(driver.send(false));
  }
  while (!inflight.empty()) {
    bool progressed = false;
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      progressed = true;
      driver.collect(inflight[i]);
      // Copied out: send() grows result.sessions.
      const SessionOutcome& done = result.sessions[inflight[i].slot];
      const double done_ms = 1e3 * done.sent_s + done.total_ms;
      const double now = driver.now_s();
      if (now < t1) {
        Inflight next = driver.send(now >= result.warmup_s);
        // Reaction delay: refill time minus the server's own completion
        // stamp (send time + total_us).
        SessionOutcome& sent = result.sessions[next.slot];
        sent.lag_ms = std::max(0.0, 1e3 * sent.sent_s - done_ms);
        inflight[i] = std::move(next);
        ++i;
      } else {
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
      }
    }
    if (!progressed && !inflight.empty()) {
      (void)inflight.front().future.wait_for(kPollWait);
    }
  }
}

/// Teacher-forced oracle: one cache-free forward over prompt + tokens[:-1]
/// per session; the argmax at every generating position must equal the
/// served token. At bf16 the paged and full paths may round differently,
/// so a served token also passes (as a counted near tie) when its oracle
/// logit is within the tie tolerance of the maximum: twice (one rounding
/// error per compared logit) the margin-5 rounding-error bound of one
/// model_dim-deep output element at the maximum's magnitude — the
/// per-element form of the bound the dtype's checksum thresholds use.
void golden_check(const TransformerModel& model,
                  const GuardedExecutor::Options& options, DType dtype,
                  RunResult& result) {
  const auto tie_tolerance = [&](double top) {
    return dtype == DType::kF32
               ? 0.0
               : 2.0 * 5.0 *
                     rounding_residual_bound(model.config().model_dim, 1,
                                             std::abs(top), dtype);
  };
  result.near_tie_tolerance = tie_tolerance(1.0);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    const GuardedExecutor executor(options);
    try {
      for (std::size_t i = next++; i < result.sessions.size(); i = next++) {
        SessionOutcome& s = result.sessions[i];
        if (s.threw || s.tokens.empty()) continue;
        std::vector<std::size_t> seq = s.prompt;
        seq.insert(seq.end(), s.tokens.begin(), s.tokens.end() - 1);
        const auto [logits, report] =
            model.forward_full(seq, AttentionBackend::kFlashAbft, executor);
        s.golden_ok = true;
        for (std::size_t j = 0; j < s.tokens.size(); ++j) {
          const std::size_t row = s.prompt.size() - 1 + j;
          std::size_t best = 0;
          for (std::size_t v = 1; v < logits.cols(); ++v) {
            if (logits(row, v) > logits(row, best)) best = v;
          }
          if (best == s.tokens[j]) continue;
          const double top = logits(row, best);
          const double served = s.tokens[j] < logits.cols()
                                    ? logits(row, s.tokens[j])
                                    : -INFINITY;
          if (top - served <= tie_tolerance(top)) {
            ++s.near_ties;
          } else {
            s.golden_ok = false;
          }
        }
        s.golden_checked = true;
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      error = std::current_exception();
    }
  };
  // The server has shut down, so the oracle may use every core.
  std::vector<std::thread> threads;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < std::min(cores, 4u); ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

RunResult run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                         double window_s, std::size_t setup_reps) {
  FLASHABFT_ENSURE_MSG(setup_reps > 0, "need at least one setup");
  RunResult result;
  const ServerConfig config = make_server_config(spec);

  // Set-up: construction of server, model and scheduler (the latter two
  // are lazy, so they are forced here rather than inside the first TTFT).
  std::unique_ptr<InferenceServer> server;
  for (std::size_t r = 0; r < setup_reps; ++r) {
    server.reset();
    const Clock::time_point begin = Clock::now();
    auto candidate = std::make_unique<InferenceServer>(config);
    (void)candidate->model();
    (void)candidate->scheduler();
    result.setup_s.push_back(seconds_between(begin, Clock::now()));
    server = std::move(candidate);
  }

  result.warmup_s = std::clamp(0.15 * window_s, 0.3, 1.5);
  result.window_s = window_s;
  const CpuTicks ticks_before = cpu_ticks();
  const Clock::time_point start = Clock::now();
  Driver driver(*server, spec, seed, start, result);
  run_closed(driver, spec, result);
  result.run_s = seconds_between(start, Clock::now());
  result.host_steal = steal_share(ticks_before, cpu_ticks());
  server->shutdown();
  result.telemetry = server->telemetry().snapshot();
  result.peak_rss = peak_rss_bytes();

  // The oracle judges nothing; it shares the server's kernels and dtype.
  const GuardedExecutor::Options oracle = executor_options_for(config);
  golden_check(server->model(), oracle, spec.dtype, result);
  return result;
}

Metrics end_to_end_metrics(const WorkloadSpec& spec, const RunResult& run) {
  // The timed figures are medians over equal slices of the window: the
  // host's speed drifts for seconds at a time, and a slow stretch pushes a
  // pooled tail percentile far more than it moves the typical slice. Each
  // slice holds at least kMinSliceSessions measured sessions, so its p95
  // leaves 10 samples beyond it.
  constexpr std::size_t kMinSliceSessions = 200;
  constexpr std::size_t kMaxSlices = 10;
  const double t0 = run.warmup_s, t1 = run.warmup_s + run.window_s;
  std::size_t measured = 0;
  for (const SessionOutcome& s : run.sessions) measured += s.measured;
  const std::size_t slices = std::clamp<std::size_t>(
      measured / kMinSliceSessions, 1, kMaxSlices);
  const double slice_s = run.window_s / double(slices);
  const auto slice_of = [&](double t) {
    return std::min(slices - 1, std::size_t((t - t0) / slice_s));
  };

  std::vector<double> ttft, tpot;
  std::vector<std::vector<double>> slice_ttft(slices), slice_tpot(slices);
  std::vector<double> slice_tokens(slices, 0.0);
  std::size_t slo_met = 0, failed = 0, sdc = 0, contributing = 0;
  for (const SessionOutcome& s : run.sessions) {
    if (s.failed()) ++failed;
    if (s.sdc()) ++sdc;
    // Tokens produced inside the window. Only the first and last token of
    // a session carry server stamps (send + ttft, send + total); the ones
    // between are placed evenly, so sessions straddling an edge count only
    // their share and equal-length sessions finishing in waves do not
    // quantize the figure.
    if (!s.threw && !s.tokens.empty()) {
      const double first = s.sent_s + s.ttft_ms / 1e3;
      const double last = s.sent_s + s.total_ms / 1e3;
      const std::size_t n = s.tokens.size();
      const double gap = n > 1 ? (last - first) / double(n - 1) : 0.0;
      bool inside = false;
      for (std::size_t j = 0; j < n; ++j) {
        const double t = first + gap * double(j);
        if (t < t0 || t >= t1) continue;
        slice_tokens[slice_of(t)] += 1.0;
        inside = true;
      }
      contributing += inside;
    }
    if (!s.measured) continue;
    if (s.failed()) continue;  // a failed session misses every limit.
    const std::size_t k = slice_of(s.sent_s);
    ttft.push_back(s.ttft_ms);
    slice_ttft[k].push_back(s.ttft_ms);
    if (s.tokens.size() > 1) {
      tpot.push_back(s.tpot_ms);
      slice_tpot[k].push_back(s.tpot_ms);
    }
    if (s.ttft_ms <= spec.slo_ttft_ms && s.tpot_ms <= spec.slo_tpot_ms) {
      ++slo_met;
    }
  }
  const auto slice_median = [](const std::vector<std::vector<double>>& by,
                               double p) {
    std::vector<double> per_slice;
    for (const std::vector<double>& samples : by) {
      if (!samples.empty()) per_slice.push_back(quantile(samples, p));
    }
    return median(per_slice);
  };
  std::vector<double> rates;
  double window_tokens = 0.0;
  for (const double tokens : slice_tokens) {
    rates.push_back(tokens / slice_s);
    window_tokens += tokens;
  }

  const double sent = double(std::max<std::size_t>(1, run.sessions.size()));
  Metrics m;
  put(m, "tokens_per_s", median(rates), "tok/s", contributing);
  put(m, "ttft_p50_ms", slice_median(slice_ttft, 0.50), "ms", ttft.size());
  put(m, "ttft_p95_ms", slice_median(slice_ttft, 0.95), "ms", ttft.size());
  put(m, "tpot_p50_ms", slice_median(slice_tpot, 0.50), "ms", tpot.size());
  put(m, "tpot_p95_ms", slice_median(slice_tpot, 0.95), "ms", tpot.size());
  // Informational: the slicing and the same figures pooled over the window.
  put(m, "window.slices", double(slices), "count", measured);
  put(m, "pooled.tokens_per_s", window_tokens / run.window_s, "tok/s",
      contributing);
  put(m, "pooled.ttft_p50_ms", quantile(ttft, 0.50), "ms", ttft.size());
  put(m, "pooled.ttft_p95_ms", quantile(ttft, 0.95), "ms", ttft.size());
  put(m, "pooled.tpot_p50_ms", quantile(tpot, 0.50), "ms", tpot.size());
  put(m, "pooled.tpot_p95_ms", quantile(tpot, 0.95), "ms", tpot.size());
  put(m, "slo_met_frac",
      measured > 0 ? double(slo_met) / double(measured) : 0.0, "1", measured);
  put(m, "served_ok_frac", 1.0 - double(failed) / sent, "1",
      run.sessions.size());
  put(m, "sdc_free_frac", 1.0 - double(sdc) / sent, "1", run.sessions.size());
  put(m, "failed_frac", double(failed) / sent, "1", run.sessions.size());
  put(m, "sdc_frac", double(sdc) / sent, "1", run.sessions.size());
  put(m, "peak_rss_mb", double(run.peak_rss) / (1024.0 * 1024.0), "MiB", 1);
  put(m, "setup_s", median(run.setup_s), "s", run.setup_s.size());
  return m;
}

Metrics telemetry_metrics(const RunResult& run) {
  const TelemetrySnapshot& t = run.telemetry;
  const double sessions =
      double(std::max<std::uint64_t>(1, t.sessions_completed));
  const double tokens = double(std::max<std::uint64_t>(1, t.tokens_generated));
  const std::string tel = "telemetry";
  std::vector<double> queue, lag;
  for (const SessionOutcome& s : run.sessions) {
    if (!s.measured) continue;
    lag.push_back(s.lag_ms);
    if (!s.threw) queue.push_back(s.queue_ms);
  }
  Metrics m;
  put(m, "serve.queue_wait_ms_p50", quantile(queue, 0.50), "ms", queue.size(),
      tel);
  put(m, "serve.queue_wait_ms_p95", quantile(queue, 0.95), "ms", queue.size(),
      tel);
  put(m, "serve.batch_occupancy", t.batch_occupancy(), "sessions",
      t.scheduler_ticks, tel);
  put(m, "serve.shed_frac",
      t.submitted > 0 ? double(t.rejected) / double(t.submitted) : 0.0, "1",
      t.submitted, tel);
  put(m, "serve.preemptions_per_session", double(t.preemptions) / sessions,
      "count", t.sessions_completed, tel);
  put(m, "serve.resumes_per_session", double(t.session_resumes) / sessions,
      "count", t.sessions_completed, tel);
  put(m, "model.dmr_compares_per_token", double(t.dmr_compares) / tokens,
      "count", t.tokens_generated, tel);
  const std::uint64_t lookups = t.prefix_hits + t.prefix_misses;
  put(m, "kv_pool.prefix_hit_rate",
      lookups > 0 ? double(t.prefix_hits) / double(lookups) : 0.0, "1",
      lookups, tel);
  put(m, "kv_pool.prefix_hit_tokens_per_session",
      double(t.prefix_hit_tokens) / sessions, "tokens", t.sessions_completed,
      tel);
  put(m, "kv_pool.cow_forks", double(t.prefix_cow_forks), "count", 1, tel);
  put(m, "kv_pool.peak_pages_in_use", double(t.peak_pages_in_use), "pages", 1,
      tel);
  std::uint64_t recovered = 0;
  for (const OpKindStats& kind : t.per_kind) recovered += kind.recovered;
  put(m, "guard.alarms_per_session", double(t.alarm_events) / sessions,
      "count", t.sessions_completed, tel);
  put(m, "guard.recovered_per_alarm",
      t.alarm_events > 0 ? double(recovered) / double(t.alarm_events) : 0.0,
      "1", t.alarm_events, tel);
  put(m, "guard.fallback_ops_per_session", double(t.fallback_ops) / sessions,
      "count", t.sessions_completed, tel);
  const double ktok = tokens / 1e3;
  for (const OpKind kind :
       {OpKind::kAttentionFlashAbft, OpKind::kProjection, OpKind::kFfn,
        OpKind::kKvPage, OpKind::kControlPlane}) {
    const std::string prefix = std::string("op.") + op_kind_name(kind);
    const obs::LogHistogram& compute =
        t.timing.of(kind, obs::GuardPhase::kCompute);
    const obs::LogHistogram& verify =
        t.timing.of(kind, obs::GuardPhase::kVerify);
    put(m, prefix + ".compute_ms_per_ktok", double(compute.total) / 1e6 / ktok,
        "ms/ktok", compute.count, tel);
    put(m, prefix + ".verify_ms_per_ktok", double(verify.total) / 1e6 / ktok,
        "ms/ktok", verify.count, tel);
  }
  put(m, "meta.verifies_per_token", double(t.meta_verifies) / tokens, "count",
      t.tokens_generated, tel);
  put(m, "scrub.passes_per_s", double(t.scrub_passes) / run.run_s, "1/s",
      t.scrub_passes, tel);
  put(m, "scrub.repairs", double(t.scrub_repairs), "count", 1, tel);
  put(m, "loadgen.lag_p95_ms", quantile(lag, 0.95), "ms", lag.size());
  put(m, "loadgen.sessions_sent", double(run.sessions.size()), "count",
      run.sessions.size());
  return m;
}

}  // namespace perfbench
