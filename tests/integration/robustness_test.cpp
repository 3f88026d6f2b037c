// Failure-injection and robustness scenarios beyond the paper's
// experiments: what the agent does when the world misbehaves.
#include <gtest/gtest.h>

#include <memory>

#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"

namespace rac {
namespace {

using config::Configuration;
using core::InitialPolicyLibrary;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

InitialPolicyLibrary small_library(const SystemContext& ctx) {
  AnalyticEnvOptions opt;
  opt.seed = 7;
  AnalyticEnv env(ctx, opt);
  core::PolicyInitOptions init;
  init.offline_td.max_sweeps = 120;
  InitialPolicyLibrary library;
  library.add(core::learn_initial_policy(env, init));
  return library;
}

/// Environment decorator that injects measurement faults.
class FaultyEnv : public env::Environment {
 public:
  FaultyEnv(std::unique_ptr<env::Environment> inner, util::Rng rng,
            double outlier_prob, double outlier_scale)
      : inner_(std::move(inner)),
        rng_(rng),
        outlier_prob_(outlier_prob),
        outlier_scale_(outlier_scale) {}

  env::Measurement measure_interval(const Configuration& c) override {
    env::Measurement m = inner_->measure_interval(c);
    if (rng_.bernoulli(outlier_prob_)) {
      // A garbage monitoring interval: GC pause, cron job, packet loss.
      m.sample.response_ms *= outlier_scale_;
    }
    return m;
  }
  void set_context(const SystemContext& ctx) override {
    inner_->set_context(ctx);
  }
  SystemContext context() const override { return inner_->context(); }

 private:
  std::unique_ptr<env::Environment> inner_;
  util::Rng rng_;
  double outlier_prob_;
  double outlier_scale_;
};

TEST(Robustness, IsolatedMeasurementOutliersDoNotTriggerPolicySwitch) {
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  auto library = small_library(ctx);

  AnalyticEnvOptions opt;
  opt.seed = 30;
  auto inner = std::make_unique<AnalyticEnv>(ctx, opt);
  // 5% of intervals read 4x too slow -- but never 5 in a row.
  FaultyEnv env(std::move(inner), util::Rng(31), 0.05, 4.0);

  core::RacOptions rac_options;
  rac_options.seed = 32;
  core::RacAgent agent(rac_options, library, 0);
  core::run_agent(env, agent, {}, 60);
  EXPECT_EQ(agent.policy_switches(), 0);
}

TEST(Robustness, AgentSurvivesUnachievableSla) {
  // SLA of 1 ms: every reward is a penalty. The agent must still prefer
  // less-negative states, i.e. behave sanely under pure punishment.
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  auto library = small_library(ctx);
  core::RacOptions rac_options;
  rac_options.seed = 33;
  rac_options.sla.reference_response_ms = 1.0;
  core::RacAgent agent(rac_options, library, 0);
  AnalyticEnvOptions opt;
  opt.seed = 34;
  AnalyticEnv env(ctx, opt);
  const auto trace = core::run_agent(env, agent, {}, 30);
  AnalyticEnvOptions det = opt;
  det.noise_sigma = 0.0;
  AnalyticEnv truth(ctx, det);
  EXPECT_LT(trace.mean_response_ms(20, 30),
            truth.evaluate(Configuration::defaults()).response_ms);
}

TEST(Robustness, BackToBackContextFlipsDoNotWedgeTheAgent) {
  // Rapid flapping between two contexts (every 12 iterations, shorter
  // than the paper's 30): the agent must keep producing valid actions and
  // end in the final context at sane performance.
  const SystemContext a{MixType::kShopping, VmLevel::kLevel1};
  const SystemContext b{MixType::kOrdering, VmLevel::kLevel3};
  AnalyticEnvOptions offline;
  offline.seed = 7;
  core::PolicyInitOptions init;
  init.offline_td.max_sweeps = 120;
  InitialPolicyLibrary library;
  {
    AnalyticEnv ea(a, offline);
    library.add(core::learn_initial_policy(ea, init));
    AnalyticEnv eb(b, offline);
    library.add(core::learn_initial_policy(eb, init));
  }
  core::RacOptions rac_options;
  rac_options.seed = 35;
  core::RacAgent agent(rac_options, library, 0);
  AnalyticEnvOptions opt;
  opt.seed = 36;
  AnalyticEnv env(a, opt);
  const core::ContextSchedule schedule = {
      {0, a}, {12, b}, {24, a}, {36, b}, {48, a}};
  const auto trace = core::run_agent(env, agent, schedule, 60);
  EXPECT_EQ(trace.records.size(), 60u);
  // Final segment is context a again: performance must be in a's regime,
  // far below b's saturated multi-second response times.
  EXPECT_LT(trace.mean_response_ms(54, 60), 1000.0);
}

TEST(Robustness, NoInitAgentDegradesGracefullyNotCatastrophically) {
  // Even the cold agent must not end up worse than ~2x the static default
  // on average (it wanders, but the default is its anchor state).
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  core::RacOptions rac_options;
  rac_options.seed = 37;
  core::RacAgent agent(rac_options, InitialPolicyLibrary{});
  AnalyticEnvOptions opt;
  opt.seed = 38;
  AnalyticEnv env(ctx, opt);
  const auto trace = core::run_agent(env, agent, {}, 40);
  AnalyticEnvOptions det = opt;
  det.noise_sigma = 0.0;
  AnalyticEnv truth(ctx, det);
  const double default_rt =
      truth.evaluate(Configuration::defaults()).response_ms;
  EXPECT_LT(trace.mean_response_ms(), 2.0 * default_rt);
}

TEST(Robustness, ZeroNoiseEnvironmentIsFullyDeterministic) {
  const SystemContext ctx{MixType::kOrdering, VmLevel::kLevel2};
  auto run_once = [&] {
    auto library = small_library(ctx);
    core::RacOptions rac_options;
    rac_options.seed = 39;
    core::RacAgent agent(rac_options, library, 0);
    AnalyticEnvOptions opt;
    opt.seed = 40;
    opt.noise_sigma = 0.0;
    AnalyticEnv env(ctx, opt);
    return core::run_agent(env, agent, {}, 25);
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  for (std::size_t i = 0; i < t1.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.records[i].response_ms, t2.records[i].response_ms);
    EXPECT_EQ(t1.records[i].configuration, t2.records[i].configuration);
  }
}

}  // namespace
}  // namespace rac
