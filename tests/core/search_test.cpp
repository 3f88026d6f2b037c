#include "core/search.hpp"

#include <gtest/gtest.h>

#include "env/analytic_env.hpp"

namespace rac::core {
namespace {

using config::Configuration;
using config::ParamId;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::VmLevel;
using workload::MixType;

AnalyticEnvOptions quiet_env() {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  return opt;
}

TEST(Search, BeatsTheDefaultConfiguration) {
  AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel1}, quiet_env());
  SearchOptions opt;
  opt.coarse_levels = 3;
  const auto result = find_best_configuration(env, opt);
  EXPECT_LT(result.best_response_ms,
            0.5 * env.evaluate(Configuration{}).response_ms);
  EXPECT_GT(result.evaluations, 81);
}

TEST(Search, ResultIsLocalOptimumOnFineGrid) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  SearchOptions opt;
  opt.coarse_levels = 3;
  const auto result = find_best_configuration(env, opt);
  for (const auto& neighbor : config::ConfigSpace::neighbors(result.best)) {
    EXPECT_GE(env.evaluate(neighbor).response_ms,
              result.best_response_ms - 1e-6);
  }
}

TEST(Search, FindsLargerMaxClientsThanDefault) {
  // All contexts here are slot-starved at the default MaxClients.
  AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel3}, quiet_env());
  SearchOptions opt;
  opt.coarse_levels = 3;
  const auto result = find_best_configuration(env, opt);
  EXPECT_GT(result.best.value(ParamId::kMaxClients), 150);
}

}  // namespace
}  // namespace rac::core
