#include "core/rac_agent.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "util/rng.hpp"

namespace rac::core {
namespace {

using config::Configuration;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

PolicyInitOptions fast_init() {
  PolicyInitOptions opt;
  opt.coarse_levels = 4;
  opt.offline_td.max_sweeps = 120;
  return opt;
}

AnalyticEnvOptions env_options(double sigma = 0.1, std::uint64_t seed = 50) {
  AnalyticEnvOptions opt;
  opt.noise_sigma = sigma;
  opt.seed = seed;
  return opt;
}

// A shared, lazily-built two-context library (offline training is the
// expensive part of these tests).
const InitialPolicyLibrary& shared_library() {
  static const InitialPolicyLibrary* lib = [] {
    auto* l = new InitialPolicyLibrary(build_library(
        {SystemContext{MixType::kShopping, VmLevel::kLevel1},
         SystemContext{MixType::kOrdering, VmLevel::kLevel3}},
        [](const SystemContext& ctx) {
          return std::make_unique<AnalyticEnv>(ctx, env_options(0.05, 7));
        },
        fast_init()));
    return l;
  }();
  return *lib;
}

TEST(RacAgent, FirstDecisionMeasuresTheDefaults) {
  RacOptions opt;
  RacAgent agent(opt, shared_library(), 0);
  EXPECT_EQ(agent.decide(), Configuration::defaults());
}

TEST(RacAgent, NameReflectsAblations) {
  RacOptions opt;
  EXPECT_EQ(RacAgent(opt, shared_library(), 0).name(), "RAC");
  EXPECT_EQ(RacAgent(opt, InitialPolicyLibrary{}).name(), "RAC/no-init");
  RacOptions no_online = opt;
  no_online.online_learning = false;
  EXPECT_EQ(RacAgent(no_online, shared_library(), 0).name(),
            "RAC/offline-only");
  RacOptions static_init = opt;
  static_init.adaptive_policy_switching = false;
  EXPECT_EQ(RacAgent(static_init, shared_library(), 0).name(),
            "RAC/static-init");
}

TEST(RacAgent, ActionsMoveAtMostOneParameterPerInterval) {
  RacOptions opt;
  RacAgent agent(opt, shared_library(), 0);
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  Configuration prev = agent.decide();
  agent.observe(prev, env.measure(prev));
  for (int i = 0; i < 20; ++i) {
    const Configuration next = agent.decide();
    int changed = 0;
    for (config::ParamId id : config::kAllParams) {
      if (next.value(id) != prev.value(id)) ++changed;
    }
    EXPECT_LE(changed, 1);
    agent.observe(next, env.measure(next));
    prev = next;
  }
}

TEST(RacAgent, ConvergesToNearOptimalWithinPaperBudget) {
  // Paper claim: near-optimal configuration in fewer than 25 iterations.
  RacOptions opt;
  opt.seed = 21;
  RacAgent agent(opt, shared_library(), 0);
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  const auto trace = run_agent(env, agent, {}, 30);

  AnalyticEnvOptions det = env_options(0.0);
  AnalyticEnv truth({MixType::kShopping, VmLevel::kLevel1}, det);
  const double default_rt = truth.evaluate(Configuration::defaults()).response_ms;
  const double late = trace.mean_response_ms(20, 30);
  EXPECT_LT(late, 0.5 * default_rt);
}

TEST(RacAgent, RecordsExperiencePerConfiguration) {
  RacOptions opt;
  RacAgent agent(opt, shared_library(), 0);
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  const auto c = agent.decide();
  agent.observe(c, env.measure(c));
  EXPECT_EQ(agent.experience().size(), 1u);
  EXPECT_TRUE(agent.experience().response_ms(c).has_value());
}

TEST(RacAgent, SwitchesPolicyOnContextChange) {
  RacOptions opt;
  opt.seed = 33;
  RacAgent agent(opt, shared_library(), 0);
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  const ContextSchedule schedule = {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {15, {MixType::kOrdering, VmLevel::kLevel3}},
  };
  run_agent(env, agent, schedule, 35);
  EXPECT_GE(agent.policy_switches(), 1);
  ASSERT_TRUE(agent.active_policy().has_value());
  EXPECT_EQ(*agent.active_policy(), 1u);  // the ordering/Level-3 policy
}

TEST(RacAgent, StaticInitNeverSwitchesPolicies) {
  RacOptions opt;
  opt.adaptive_policy_switching = false;
  RacAgent agent(opt, shared_library(), 0);
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  const ContextSchedule schedule = {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {15, {MixType::kOrdering, VmLevel::kLevel3}},
  };
  run_agent(env, agent, schedule, 35);
  EXPECT_EQ(agent.policy_switches(), 0);
  EXPECT_EQ(*agent.active_policy(), 0u);
}

TEST(RacAgent, OfflineOnlyAgentDoesNotGrowQTableFromMeasurements) {
  RacOptions opt;
  opt.online_learning = false;
  RacAgent agent(opt, shared_library(), 0);
  const std::size_t before = agent.qtable().size();
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, env_options());
  for (int i = 0; i < 10; ++i) {
    const auto c = agent.decide();
    agent.observe(c, env.measure(c));
  }
  EXPECT_EQ(agent.qtable().size(), before);
}

TEST(RacAgent, NoInitAgentStartsWithEmptyTable) {
  RacOptions opt;
  RacAgent agent(opt, InitialPolicyLibrary{});
  EXPECT_TRUE(agent.qtable().empty());
  EXPECT_FALSE(agent.active_policy().has_value());
}

// Loading a policy must not copy its table: constructing an agent over a
// library table of 10^5 written rows (the construction runs load_policy)
// allocates kilobytes, where a copy of the table takes ~17 MB.
TEST(RacAgent, LoadPolicySharesTheLibraryTableInsteadOfCopyingIt) {
  if (!obs::alloc_hook_compiled()) {
    GTEST_SKIP() << "allocation counting needs -DRAC_ALLOC_HOOK=ON";
  }
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  util::Rng rng(14);
  while (policy.table.size() < 100000) {
    policy.table.set_q(config::ConfigSpace::random_fine(rng),
                       config::Action::keep(), rng.normal(0.0, 1.0));
  }
  InitialPolicyLibrary library;
  library.add(std::move(policy));
  obs::Registry registry;
  RacOptions options;
  options.registry = &registry;
  {
    // Register the agent's metrics and profile phases outside the window.
    const RacAgent warmup(options, library, 0);
  }

  const obs::ProcessStats before = obs::process_stats();
  obs::set_alloc_counting(true);
  const RacAgent agent(options, library, 0);
  obs::set_alloc_counting(false);
  const obs::ProcessStats after = obs::process_stats();

  EXPECT_LT(after.alloc_bytes - before.alloc_bytes, 64U * 1024U);
  RecordProperty("allocated_bytes",
                 std::to_string(after.alloc_bytes - before.alloc_bytes));
  // The premise: the agent reads the whole library table.
  EXPECT_EQ(agent.qtable().base().get(), &library.at(0).table);
  EXPECT_EQ(agent.qtable().size(), library.at(0).table.size());
}

}  // namespace
}  // namespace rac::core
