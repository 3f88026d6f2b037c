#include "env/analytic_env.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "config/params.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "queueing/mva.hpp"
#include "tiersim/system_params.hpp"
#include "util/rng.hpp"
#include "workload/tpcw.hpp"

namespace rac::env {

namespace {

using config::Configuration;
using config::ParamId;

/// Mechanism constants shared with the DES.
constexpr tiersim::SystemParams kSystem{};
constexpr double kMs = 1000.0;
/// Fraction of the interval affected by bursts.
constexpr double kBurstProb = 0.30;

/// Think-gap distribution: exp(t) with probability (1-p), exp(t)+exp(b)
/// with probability p (the mid-session pause model of BrowserProfile).
struct GapDist {
  double t;  // base think mean
  double p;  // pause probability
  double b;  // pause mean

  /// P(gap > x).
  double tail(double x) const {
    const double base = std::exp(-x / t);
    // Tail of exp(t)+exp(b): (b e^{-x/b} - t e^{-x/t}) / (b - t).
    const double sum_tail =
        (b * std::exp(-x / b) - t * std::exp(-x / t)) / (b - t);
    return (1.0 - p) * base + p * sum_tail;
  }

  /// E[min(gap, x)] = integral of the tail from 0 to x.
  double mean_min(double x) const {
    const double base = t * (1.0 - std::exp(-x / t));
    // Integral of the two-exponential-sum tail from 0 to x.
    const double sum_part =
        (b * b * (1.0 - std::exp(-x / b)) - t * t * (1.0 - std::exp(-x / t))) /
        (b - t);
    return (1.0 - p) * base + p * sum_part;
  }
};

double swap_factor(const tiersim::SystemParams& P, double used_mb,
                   double total_mb) {
  const double over = std::max(0.0, used_mb - total_mb) / total_mb;
  return 1.0 + P.swap_slowdown_coeff * over * over;
}

/// Memo slot index: the context and target mixed through derive_seed,
/// plus the configuration's grid position weighted by distinct odd
/// per-parameter strides. One fine step on one parameter (an agent action)
/// moves the index by an odd amount, so a configuration never shares a
/// slot with its one-step neighbours, the operating points an agent near
/// its optimum alternates between.
std::size_t memo_index(const SystemContext& context, const Configuration& cfg,
                       const workload::TrafficTarget& target,
                       std::size_t slots) {
  constexpr std::array<std::uint64_t, config::kNumParams> kStride = {
      1, 5, 9, 13, 3, 7, 11, 15};
  std::uint64_t h = util::derive_seed(
      static_cast<std::uint64_t>(context.mix) * 8 +
          static_cast<std::uint64_t>(context.level),
      0);
  h = util::derive_seed(h,
                        std::bit_cast<std::uint64_t>(target.concurrency_scale));
  h = util::derive_seed(h, std::bit_cast<std::uint64_t>(target.think_scale));
  for (const double w : target.mix_weights) {
    h = util::derive_seed(h, std::bit_cast<std::uint64_t>(w));
  }
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    const config::ParamSpec& spec = config::catalog()[i];
    h += kStride[i] * static_cast<std::uint64_t>(
                          (cfg.values()[i] - spec.min) / spec.fine_step);
  }
  return static_cast<std::size_t>(h % slots);
}

}  // namespace

AnalyticEnv::AnalyticEnv(const SystemContext& context,
                         const AnalyticEnvOptions& options)
    : ctx_(context),
      opt_(options),
      rng_(options.seed),
      traffic_(options.registry) {
  if (opt_.num_clients < 1) {
    throw std::invalid_argument("AnalyticEnv: need at least one client");
  }
  obs::Registry& reg = obs::registry_or_default(opt_.registry);
  measurements_ = &reg.counter("env.analytic.measurements");
  measure_hits_ = &reg.counter("env.analytic.measure_hits");
  noise_draws_ = &reg.counter("env.analytic.noise_draws");
  evaluations_ = &reg.counter("env.analytic.evaluations");
  evaluate_us_ =
      &reg.histogram("env.analytic.evaluate_us", obs::latency_us_bounds());
  // Station structure is fixed for the life of the model; evaluate() swaps
  // rate tables in place each fixed-point iteration. The placeholder rate
  // tables are never solved against.
  subnet_.set_registry(opt_.registry);
  outer_.set_registry(opt_.registry);
  subnet_.add_station(queueing::Station{"web-vm", 1.0, {1.0}});
  subnet_.add_station(queueing::Station{"appdb-vm", 1.0, {1.0}});
  outer_.add_station(queueing::Station{"website", 1.0, {1.0}});
}

std::unique_ptr<Environment> AnalyticEnv::clone_with_seed(
    std::uint64_t seed) const {
  AnalyticEnvOptions options = opt_;
  // Mix in this environment's own seed so two base environments that get
  // the same task seed still draw distinct noise.
  options.seed = util::derive_seed(opt_.seed, seed);
  auto clone = std::make_unique<AnalyticEnv>(ctx_, options);
  // The model is immutable shared state and the cursor is part of the
  // trajectory: a clone measuring interval k must see the same target the
  // original would have.
  clone->traffic_ = traffic_;
  return clone;
}

Measurement AnalyticEnv::measure_interval(const Configuration& configuration) {
  measurements_->add(1);
  const workload::TrafficTarget target = traffic_.next(ctx_.mix);
  MemoSlot& slot = memo_[memo_index(ctx_, configuration, target, kMemoSlots)];
  const bool hit = slot.filled && slot.context == ctx_ &&
                   slot.configuration == configuration &&
                   workload::same_target(slot.target, target);
  if (hit) {
    measure_hits_->add(1);
  } else {
    slot = MemoSlot{true, ctx_, configuration, target,
                    evaluate_under(configuration, target)};
  }
  Measurement measurement;
  measurement.sample = slot.sample;
  if (opt_.noise_sigma > 0.0) {
    measurement.sample.response_ms *= rng_.lognormal_unit(opt_.noise_sigma);
    measurement.sample.throughput_rps *=
        rng_.lognormal_unit(opt_.noise_sigma * 0.5);
    noise_draws_->add(2);
  }
  return measurement;
}

PerfSample AnalyticEnv::evaluate(const Configuration& cfg,
                                 ModelDiagnostics* diagnostics) const {
  return evaluate_under(cfg, workload::one_hot_target(ctx_.mix), diagnostics);
}

PerfSample AnalyticEnv::evaluate_under(const Configuration& cfg,
                                       const workload::TrafficTarget& target,
                                       ModelDiagnostics* diagnostics) const {
  evaluations_->add(1);
  const obs::ProfileScope evaluate_profile("env.analytic.evaluate",
                                          *evaluate_us_);
  const tiersim::SystemParams& P = kSystem;
  // The blended workload at the scaled population. A static mix's one-hot
  // target reproduces the single-mix statistics bitwise
  // (TrafficBlend.OneHotBlendReproducesThePlainMixBitwise).
  const workload::MixStats stats =
      workload::blend_mix_stats(target.mix_weights);
  const workload::BrowserProfile profile =
      workload::blend_browser_profile(target.mix_weights, target.think_scale);
  const tiersim::VmSpec web_vm = web_vm_spec();
  const tiersim::VmSpec app_vm = vm_spec(ctx_.level);
  const int N = workload::scaled_population(opt_.num_clients, target);
  const double Z = profile.effective_think_mean_s();
  const double L = profile.session_length_mean;

  const GapDist gap{profile.think_time_mean_s, profile.pause_prob,
                    profile.pause_mean_s};

  // --- configuration-derived constants -----------------------------------
  const int max_clients = cfg.value(ParamId::kMaxClients);
  const int max_threads = cfg.value(ParamId::kMaxThreads);
  const double ka = static_cast<double>(cfg.value(ParamId::kKeepAliveTimeout));
  const double ts_s = 60.0 * static_cast<double>(cfg.value(ParamId::kSessionTimeout));
  const double min_spare_w = cfg.value(ParamId::kMinSpareServers);
  const double max_spare_w = cfg.value(ParamId::kMaxSpareServers);
  const double min_spare_t = cfg.value(ParamId::kMinSpareThreads);
  const double max_spare_t = cfg.value(ParamId::kMaxSpareThreads);

  // Keep-alive: only continuing (non-first-of-session) requests can find a
  // parked connection, and only when the think gap fits in the timeout.
  const double f_cont = (L - 1.0) / L;
  const double p_reuse = f_cont * (1.0 - gap.tail(ka));
  const double hold_s = f_cont * gap.mean_min(ka);

  // Sessions: a server-side session lives from first use until timeout
  // after its last use (Little's law on session objects). The container
  // bounds retained sessions (an LRU overflow store), so lingering expired
  // sessions cannot grow past twice the browser population.
  const double session_cycle_s = L * Z + profile.inter_session_gap_s;
  const double live_sessions =
      static_cast<double>(N) * std::min(2.0, (L * Z + ts_s) / session_cycle_s);
  // Session-database work: every first-of-session request builds a session,
  // and a mid-session gap longer than the timeout forces a rebuild.
  const double p_rebuild_mid = stats.session_fraction * f_cont * gap.tail(ts_s);
  const double rebuild_db_ms =
      (stats.session_fraction / L + p_rebuild_mid) * P.session_rebuild_ms;

  // Base demands (before congestion-dependent inflation), in seconds.
  const double d_app_s = stats.app_demand_ms * P.demand_scale_app / kMs;
  const double d_db_base_s =
      (stats.db_demand_ms * P.demand_scale_db + rebuild_db_ms) / kMs;
  const double working_set_mb = P.db_working_set_mb *
                                (stats.db_demand_ms * P.demand_scale_db) /
                                P.db_ws_reference_ms;

  const double spare_mid_w = 0.5 * (min_spare_w + std::max(min_spare_w, max_spare_w));
  const double spare_mid_t = 0.5 * (min_spare_t + std::max(min_spare_t, max_spare_t));

  // --- fixed point: throughput-coupled quantities <-> MVA -----------------
  double X = static_cast<double>(N) / (Z + 0.5);  // throughput guess
  double R = 0.5;                                  // response-time guess
  double r_appdb = 0.3;                            // app+db share of R
  double slot_wait = 0.0;                          // accept-queue wait

  ModelDiagnostics diag;
  for (int iter = 0; iter < opt_.fixed_point_iterations; ++iter) {
    // Parked keep-alive connections. When MaxClients is too small to park
    // the desired connections, the achievable reuse flow is capped by the
    // parked pool's turnover.
    const double held =
        std::min(X * hold_s, 0.9 * static_cast<double>(max_clients));
    const double q =
        hold_s <= 0.0 ? 0.0
                      : std::min(p_reuse, held / std::max(X * hold_s, 1e-9) *
                                              p_reuse);

    // Expected pool sizes (steady state: busy/held plus the spare window).
    const double web_workers =
        std::min(static_cast<double>(max_clients), held + X * R + spare_mid_w);
    const double app_threads = std::min(static_cast<double>(max_threads),
                                        X * r_appdb + spare_mid_t);

    // Memory model.
    const double web_used =
        P.os_base_mem_mb + web_workers * P.web_worker_mem_mb;
    const double web_swap = swap_factor(P, web_used, web_vm.mem_mb);
    const double app_used = P.os_base_mem_mb +
                            app_threads * P.app_thread_mem_mb +
                            live_sessions * P.session_mem_mb;
    const double app_swap = swap_factor(P, app_used, app_vm.mem_mb);
    const double buffer_mb =
        std::max(P.db_min_buffer_mb, app_vm.mem_mb - app_used);
    // Miss inflation is capped: past a point the database is disk-bound and
    // additional pool shrinkage no longer compounds.
    const double miss_mult =
        1.0 + P.db_miss_coeff *
                  std::min(8.0, std::max(0.0, working_set_mb / buffer_mb - 1.0));

    // Database write-lock contention (concurrent writers by Little's law).
    const double d_db_miss_s = d_db_base_s * miss_mult;
    const double writers = X * stats.write_fraction * d_db_miss_s;
    const double lock_mult = 1.0 + P.write_lock_coeff * writers;
    const double d_appdb_s = d_app_s + d_db_miss_s * lock_mult;

    // Pool churn: if the spare window is narrower than the natural
    // fluctuation of the busy count, the web pool forks/kills continuously;
    // the fork CPU lands on the web VM.
    const double fluctuation = std::sqrt(std::max(1.0, held + X * R));
    const double churn_forks_per_s =
        std::max(0.0, fluctuation - (max_spare_w - min_spare_w)) /
        P.maintenance_interval_s * 0.5;
    const double d_web_s =
        (stats.web_demand_ms * P.demand_scale_web +
         (1.0 - q) * P.conn_setup_ms) /
            kMs +
        churn_forks_per_s * (P.fork_cost_ms / kMs) / std::max(X, 1e-6);

    // Inner subnetwork: the two VMs serving an admitted request. A web
    // worker is held for the *whole* request (Apache prefork proxies the
    // app tier synchronously), so MaxClients caps the total in-flight
    // count -- modeled below via flow-equivalent aggregation. The networks
    // persist across iterations and evaluations; only the rate tables are
    // swapped, so their recursion scratch is reused.
    {
      std::vector<double> web_rates;
      web_rates.reserve(static_cast<std::size_t>(N));
      for (int j = 1; j <= N; ++j) {
        const double slowdown = (1.0 + P.web_concurrency_ovh * j) * web_swap;
        web_rates.push_back(std::min(j, web_vm.vcpus) /
                            (d_web_s * slowdown));
      }
      subnet_.set_station_rates(0, std::move(web_rates));
    }
    {
      std::vector<double> app_rates;
      app_rates.reserve(static_cast<std::size_t>(N));
      for (int j = 1; j <= N; ++j) {
        const int served = std::min(j, max_threads);  // MaxThreads cap
        const double slowdown =
            (1.0 + P.app_concurrency_ovh * served) * app_swap;
        app_rates.push_back(std::min(served, app_vm.vcpus) /
                            (d_appdb_s * slowdown));
      }
      subnet_.set_station_rates(1, std::move(app_rates));
    }
    std::vector<double> x_sub = subnet_.throughput_curve(N);

    // Outer model: think delay + the flow-equivalent station. The
    // MaxClients admission constraint is handled separately below (slot
    // shortage / burst terms) because keep-alive reuse lets most of the
    // flow bypass the accept queue.
    outer_.set_think_time(Z);
    outer_.set_station_rates(0, std::move(x_sub));
    const auto mva = outer_.solve(N);
    // Slot shortage: by Little's law the browsers occupy X * (hold + R)
    // worker slots (parked plus in-service). If MaxClients provides fewer,
    // new connections wait for the pool to turn over; the wait scales with
    // the shortage ratio times the per-slot holding time. The wait slows
    // the browsers down (it extends their cycle), which is why it is part
    // of the fixed point rather than a post-hoc correction.
    const double need_now =
        mva.throughput * (hold_s + mva.response_time);
    const double shortage =
        std::max(0.0, need_now / static_cast<double>(max_clients) - 1.0);
    slot_wait = 0.5 * (hold_s + mva.response_time) * std::pow(shortage, 1.3);

    // Damped update for stable coupling; the slot wait extends the cycle.
    const double x_target =
        static_cast<double>(N) / (Z + mva.response_time + slot_wait);
    X = 0.5 * X + 0.5 * std::min(mva.throughput, x_target);
    R = 0.5 * R + 0.5 * mva.response_time;
    // App+db share of the response time, for the thread-pool estimate:
    // approximate by the demand ratio at the admitted operating point.
    r_appdb = R * d_appdb_s / (d_appdb_s + d_web_s);

    diag.throughput_rps = X;
    diag.response_s = R;
    diag.held_connections = held;
    diag.active_need = X * R;
    diag.effective_web_cap = std::max(0.0, max_clients - held);
    diag.connection_reuse = q;
    diag.live_sessions = live_sessions;
    diag.db_buffer_mb = buffer_mb;
    diag.db_miss_mult = miss_mult;
    diag.write_lock_mult = lock_mult;
    diag.web_workers = web_workers;
    diag.app_threads = app_threads;
    diag.web_demand_ms = d_web_s * kMs;
    diag.appdb_demand_ms = d_appdb_s * kMs;
    diag.app_swap_factor = app_swap;
    diag.web_swap_factor = web_swap;
  }

  // --- transients ----------------------------------------------------------
  // Fork wait: a request needing a fresh worker may find no idle spare and
  // wait out a fork; deeper spare pools make this exponentially rarer.
  const double sigma = std::sqrt(std::max(1.0, diag.held_connections + X * R));
  const double p_no_idle = std::exp(-min_spare_w / sigma);
  const double fork_wait_s =
      (1.0 - diag.connection_reuse) * p_no_idle * P.fork_latency_s;

  const double need = X * (hold_s + R);
  const double slot_wait_s = slot_wait;

  // Burst overload: pause-returns synchronize and momentarily fill every
  // worker slot MaxClients allows beyond the steady-state need; the burst
  // then drains through the app VM's cores ("the cost of processing time
  // because of the increased level of concurrency"). A tight admission cap
  // bounds the damage.
  const double admit_ceiling = std::min<double>(max_clients, N);
  const double over = std::max(0.0, admit_ceiling - need);
  const double burst_s = kBurstProb * (over / static_cast<double>(N)) *
                         0.5 * over * (diag.appdb_demand_ms / kMs) /
                         static_cast<double>(app_vm.vcpus);

  diag.fork_wait_ms = fork_wait_s * kMs;
  diag.burst_penalty_ms = burst_s * kMs;
  diag.active_need = need;

  PerfSample sample;
  sample.response_ms = (R + fork_wait_s + slot_wait_s + burst_s) * kMs;
  sample.throughput_rps = X;
  if (diagnostics != nullptr) *diagnostics = diag;
  return sample;
}

}  // namespace rac::env
