#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include "env/analytic_env.hpp"

namespace rac::core {
namespace {

using config::ParamId;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::VmLevel;
using workload::MixType;

const SensitivityReport& shared_report() {
  static const SensitivityReport* report = [] {
    AnalyticEnvOptions opt;
    opt.noise_sigma = 0.0;
    static AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel1}, opt);
    SensitivityOptions options;
    options.stride = 2;
    return new SensitivityReport(analyze_sensitivity(env, options));
  }();
  return *report;
}

TEST(Sensitivity, CoversEveryParameterOnce) {
  const auto& report = shared_report();
  EXPECT_EQ(report.ranked.size(), config::kNumParams);
  std::set<ParamId> seen;
  for (const auto& entry : report.ranked) seen.insert(entry.id);
  EXPECT_EQ(seen.size(), config::kNumParams);
  EXPECT_GT(report.evaluations, 0);
}

TEST(Sensitivity, RankedByDescendingImpact) {
  const auto& report = shared_report();
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_GE(report.ranked[i - 1].impact(), report.ranked[i].impact());
  }
}

TEST(Sensitivity, MaxClientsDominatesThisSubstrate) {
  // On a slot-starved system MaxClients commands by far the largest
  // response-time range -- the paper hand-picked it first for a reason.
  const auto& report = shared_report();
  EXPECT_EQ(report.ranked.front().id, ParamId::kMaxClients);
  EXPECT_GT(report.ranked.front().impact(), 1.0);
}

TEST(Sensitivity, KeepAliveIsPerformanceRelevant) {
  const auto& report = shared_report();
  for (const auto& entry : report.ranked) {
    if (entry.id == ParamId::kKeepAliveTimeout) {
      EXPECT_GT(entry.impact(), 0.1);
    }
  }
}

TEST(Sensitivity, SelectionThresholdFilters) {
  const auto& report = shared_report();
  const auto all = report.selected(0.0);
  EXPECT_EQ(all.size(), config::kNumParams);
  const auto major = report.selected(0.5);
  EXPECT_LT(major.size(), all.size());
  EXPECT_FALSE(major.empty());
  // Selected set respects the ranking order.
  EXPECT_EQ(major.front(), report.ranked.front().id);
}

TEST(Sensitivity, BoundsAreConsistent) {
  for (const auto& entry : shared_report().ranked) {
    EXPECT_GT(entry.min_response_ms, 0.0);
    EXPECT_GE(entry.max_response_ms, entry.min_response_ms);
    EXPECT_GE(entry.impact(), 0.0);
  }
}

TEST(Sensitivity, RejectsBadOptions) {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, opt);
  SensitivityOptions bad;
  bad.stride = 0;
  EXPECT_THROW(analyze_sensitivity(env, bad), std::invalid_argument);
}

}  // namespace
}  // namespace rac::core
