#include "baselines/hill_climb.hpp"
#include "baselines/static_agent.hpp"
#include "baselines/trial_and_error.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "env/analytic_env.hpp"

namespace rac::baselines {
namespace {

using config::Configuration;
using config::ParamId;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::VmLevel;
using workload::MixType;

AnalyticEnvOptions env_options(double sigma = 0.05, std::uint64_t seed = 50) {
  AnalyticEnvOptions opt;
  opt.noise_sigma = sigma;
  opt.seed = seed;
  return opt;
}

TEST(StaticDefaultAgent, NeverChangesConfiguration) {
  StaticDefaultAgent agent;
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  for (int i = 0; i < 5; ++i) {
    const auto c = agent.decide();
    EXPECT_EQ(c, Configuration::defaults());
    agent.observe(c, env.measure(c));
  }
}

TEST(StaticDefaultAgent, CanHoldCustomConfiguration) {
  Configuration custom;
  custom.set(ParamId::kMaxClients, 400);
  StaticDefaultAgent agent(custom);
  EXPECT_EQ(agent.decide(), custom);
}

TEST(TrialAndError, SweepsEveryParameterThenHolds) {
  TrialAndErrorAgent agent;
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  int iterations = 0;
  while (!agent.finished_sweep() && iterations < 100) {
    const auto c = agent.decide();
    agent.observe(c, env.measure(c));
    ++iterations;
  }
  EXPECT_TRUE(agent.finished_sweep());
  // 3 candidate values per parameter, 8 parameters.
  EXPECT_LE(iterations, 24);
  // Once done, the decision is stable.
  const auto held = agent.decide();
  agent.observe(held, env.measure(held));
  EXPECT_EQ(agent.decide(), held);
}

TEST(TrialAndError, ImprovesOnTheDefaultConfiguration) {
  TrialAndErrorAgent agent;
  AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel1}, env_options());
  core::AgentTrace trace = core::run_agent(env, agent, {}, 40);
  AnalyticEnv truth({MixType::kOrdering, VmLevel::kLevel1}, env_options(0.0));
  const double default_rt =
      truth.evaluate(Configuration::defaults()).response_ms;
  EXPECT_LT(trace.mean_response_ms(30, 40), 0.7 * default_rt);
}

TEST(TrialAndError, CoarseSweepMissesTheFineOptimum) {
  // The paper's criticism: independent, coarse tuning lands on a local /
  // coarse optimum. The swept MaxClients values are {50, 325, 600}; the
  // true optimum for this context sits near 225-275, so the held setting
  // must be one of the coarse candidates, not the true optimum.
  TrialAndErrorAgent agent;
  AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel1}, env_options());
  core::run_agent(env, agent, {}, 30);
  ASSERT_TRUE(agent.finished_sweep());
  const int chosen = agent.base().value(ParamId::kMaxClients);
  EXPECT_TRUE(chosen == 50 || chosen == 325 || chosen == 600) << chosen;
}

TEST(TrialAndError, RestartsAfterContextChange) {
  TrialAndErrorAgent agent;
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  const core::ContextSchedule schedule = {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {30, {MixType::kOrdering, VmLevel::kLevel3}},
  };
  core::run_agent(env, agent, schedule, 60);
  EXPECT_GE(agent.restarts(), 1);
}

TEST(HillClimb, WalksToNearLocalOptimum) {
  HillClimbAgent agent;
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  const auto trace = core::run_agent(env, agent, {}, 60);
  AnalyticEnv truth({MixType::kShopping, VmLevel::kLevel1}, env_options(0.0));
  const double default_rt =
      truth.evaluate(Configuration::defaults()).response_ms;
  EXPECT_LT(trace.mean_response_ms(45, 60), 0.5 * default_rt);
}

TEST(HillClimb, FineStepsBeatTheCoarseTrialAndError) {
  // The line search exploits the fine grid, so its stable state should be
  // at least as good as the coarse sweep's.
  AnalyticEnv env1({MixType::kOrdering, VmLevel::kLevel1}, env_options());
  HillClimbAgent hill;
  const auto hill_trace = core::run_agent(env1, hill, {}, 60);
  AnalyticEnv env2({MixType::kOrdering, VmLevel::kLevel1}, env_options());
  TrialAndErrorAgent sweep;
  const auto sweep_trace = core::run_agent(env2, sweep, {}, 60);
  EXPECT_LE(hill_trace.mean_response_ms(45, 60),
            1.1 * sweep_trace.mean_response_ms(45, 60));
}

}  // namespace
}  // namespace rac::baselines
