#include "core/policy_init.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/library_io.hpp"
#include "core/policy_library.hpp"
#include "env/analytic_env.hpp"
#include "env/sim_env.hpp"
#include "obs/process_stats.hpp"
#include "rl/policy.hpp"
#include "rl/serialization.hpp"
#include "util/rng.hpp"

namespace rac::core {
namespace {

using config::Configuration;
using config::ParamId;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

PolicyInitOptions fast_options() {
  PolicyInitOptions opt;
  opt.coarse_levels = 4;
  opt.offline_td.max_sweeps = 120;
  return opt;
}

AnalyticEnvOptions quiet_env() {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  return opt;
}

class PolicyInitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
    policy_ = new InitialPolicy(learn_initial_policy(env, fast_options()));
  }
  static void TearDownTestSuite() {
    delete policy_;
    policy_ = nullptr;
  }
  static const InitialPolicy* policy_;
};

const InitialPolicy* PolicyInitTest::policy_ = nullptr;

TEST_F(PolicyInitTest, RecordsContextAndFitsSurface) {
  EXPECT_EQ(policy_->context.mix, MixType::kShopping);
  EXPECT_TRUE(policy_->surface.fitted());
  EXPECT_GT(policy_->regression_r2, 0.5);
}

TEST_F(PolicyInitTest, BestSampledIsReasonable) {
  EXPECT_GT(policy_->best_sampled_response_ms, 0.0);
  // The coarse grid contains configurations far better than the default.
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  EXPECT_LT(policy_->best_sampled_response_ms,
            env.evaluate(Configuration{}).response_ms);
}

TEST_F(PolicyInitTest, PredictionsCorrelateWithTruth) {
  // On held-out (non-coarse) configurations the regression must at least
  // rank a starved configuration far above a tuned one.
  Configuration starved;
  starved.set(ParamId::kMaxClients, 75);
  Configuration tuned;
  tuned.set(ParamId::kMaxClients, 250);
  EXPECT_GT(policy_->predict_response_ms(starved),
            2.0 * policy_->predict_response_ms(tuned));
}

TEST_F(PolicyInitTest, PredictRewardConsistentWithResponse) {
  const Configuration c;
  EXPECT_DOUBLE_EQ(
      policy_->predict_reward(c),
      reward_from_response(policy_->sla, policy_->predict_response_ms(c)));
}

TEST_F(PolicyInitTest, QTableCoversDefaultAndCoarseStates) {
  EXPECT_TRUE(policy_->table.contains(Configuration::defaults()));
  EXPECT_GT(policy_->table.size(), 81u);
}

TEST_F(PolicyInitTest, GreedyWalkFromDefaultImprovesTruePerformance) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  Configuration s;
  const double start_rt = env.evaluate(s).response_ms;
  for (int i = 0; i < 25; ++i) {
    const auto a = policy_->table.best_action(s);
    if (a.is_keep()) break;
    s = config::ConfigSpace::apply(s, a);
  }
  const double end_rt = env.evaluate(s).response_ms;
  EXPECT_LT(end_rt, 0.6 * start_rt);
}

TEST(PolicyInit, RejectsAnEnvironmentThatCannotClone) {
  // Every coarse sample is measured on a clone; the simulator has none.
  env::SimEnv env({MixType::kShopping, VmLevel::kLevel1});
  EXPECT_THROW(learn_initial_policy(env, fast_options()),
               std::invalid_argument);
}

// --- library ----------------------------------------------------------------

// Offline TD makes a row for each state its walks visit and for no other.
// A visit backs up every action of its state, so no row of the trained
// table can still hold the default at every action, as a row made for a
// neighbor the backups only read would.
TEST_F(PolicyInitTest, OfflineTableHoldsOnlyWrittenRows) {
  const rl::QTable& trained = policy_->table;
  ASSERT_EQ(trained.base(), nullptr);
  std::size_t unwritten = 0;
  for (std::size_t row = 0; row < trained.num_rows(); ++row) {
    bool all_default = true;
    for (const config::Action a : config::ConfigSpace::all_actions()) {
      all_default = all_default && trained.q_at(row, a) == trained.default_q();
    }
    unwritten += all_default ? 1 : 0;
  }
  EXPECT_EQ(unwritten, 0U) << "of " << trained.num_rows() << " rows";
}

// A table entering the library is kept as it is: nothing read from it or
// saved from it changes.
TEST_F(PolicyInitTest, LibraryKeepsOnlyTheWrittenRowsOfATable) {
  const rl::QTable& trained = policy_->table;
  InitialPolicyLibrary lib;
  lib.add(*policy_);
  const rl::QTable& kept = lib.at(0).table;
  EXPECT_EQ(kept.base(), nullptr);
  EXPECT_EQ(kept.size(), trained.size());
  EXPECT_EQ(kept.states(), trained.states());
  EXPECT_TRUE(exactly_equal(lib.at(0), *policy_));
  // Reads at every written state and at each of its neighbors, most of
  // which have no row.
  for (const Configuration& state : trained.states()) {
    for (const config::Action a : config::ConfigSpace::all_actions()) {
      const Configuration next = config::ConfigSpace::apply(state, a);
      ASSERT_EQ(kept.contains(next), trained.contains(next));
      ASSERT_EQ(kept.max_q(next), trained.max_q(next));
      ASSERT_EQ(kept.best_action(next), trained.best_action(next));
      ASSERT_EQ(kept.q(state, a), trained.q(state, a));
    }
  }
  std::ostringstream before;
  rl::save_qtable(before, trained);
  std::ostringstream after;
  rl::save_qtable(after, kept);
  EXPECT_EQ(after.str(), before.str());
}

// --- Oracle: tabulated predictions against the surface's own predict -----
//
// TabulatedSurface reads its columns off QuadraticSurface::features and sums
// in LinearModel::predict's order, so every prediction must equal the
// reference path -- the surface's predict over normalized_values(), which
// computes its features (16 or 24 std::pow calls) per call -- bit for bit.

// A policy fitted on the noiseless twin: degree 2 from 3 coarse levels,
// degree 3 from 4. One offline sweep, since only the surface is read.
InitialPolicy fitted_policy(int coarse_levels) {
  PolicyInitOptions options;
  options.coarse_levels = coarse_levels;
  options.offline_td.max_sweeps = 1;
  AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel2}, quiet_env());
  return learn_initial_policy(env, options);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every integer value of every parameter (the others at their defaults),
// then 10^5 seeded configurations drawn over the whole integer ranges.
void expect_tabulated_matches_reference(const InitialPolicy& policy,
                                        std::uint64_t seed) {
  ASSERT_TRUE(policy.surface.fitted());
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  const auto check = [&](const Configuration& c) {
    const double reference =
        policy.surface.regression().predict(c.normalized_values());
    ++checked;
    if (bits(policy.surface.predict(c)) != bits(reference) ||
        bits(policy.predict_response_ms(c)) !=
            bits(std::exp(std::clamp(reference, -12.0, 12.0)))) {
      ++mismatched;
    }
  };
  for (const config::ParamSpec& spec : config::catalog()) {
    for (int v = spec.min; v <= spec.max; ++v) {
      Configuration c;
      c.set(spec.id, v);
      check(c);
    }
  }
  util::Rng rng(seed);
  for (int k = 0; k < 100000; ++k) {
    std::array<int, config::kNumParams> values{};
    for (const config::ParamSpec& spec : config::catalog()) {
      values[config::index(spec.id)] = rng.uniform_int(spec.min, spec.max);
    }
    check(Configuration(values));
  }
  EXPECT_EQ(mismatched, 0u) << "of " << checked << " configurations";
}

TEST(TabulatedSurfaceOracle, PredictionsEqualTheSurfacesOwnBitForBit) {
  for (const int coarse_levels : {3, 4}) {
    SCOPED_TRACE(coarse_levels);
    const InitialPolicy fitted = fitted_policy(coarse_levels);
    ASSERT_EQ(fitted.surface.regression().per_dim_degree(), coarse_levels - 1);
    {
      SCOPED_TRACE("fitted");
      expect_tabulated_matches_reference(fitted, 31);
    }
    {
      SCOPED_TRACE("copy");
      const InitialPolicy copy = fitted;
      expect_tabulated_matches_reference(copy, 32);
    }
    {
      SCOPED_TRACE("saved and loaded");
      InitialPolicyLibrary library;
      library.add(fitted);
      std::stringstream stream;
      save_library(stream, library);
      const InitialPolicyLibrary loaded = load_library(stream);
      ASSERT_EQ(loaded.size(), 1u);
      expect_tabulated_matches_reference(loaded.at(0), 33);
    }
  }
}

TEST(TabulatedSurface, RejectsASurfaceOverAnotherNumberOfInputs) {
  const std::vector<double> points = {0.0, 0.0, 1.0, 0.0, 0.0, 1.0,
                                      1.0, 1.0, 0.5, 0.2, 0.3, 0.9};
  const std::vector<double> ys = {1.0, 2.0, 3.0, 4.0, 2.5, 3.5};
  EXPECT_THROW(TabulatedSurface(util::QuadraticSurface::fit(points, 2, ys)),
               std::invalid_argument);
  EXPECT_FALSE(TabulatedSurface().fitted());
}

// A prediction allocates nothing; the reference path allocates its
// standardized inputs and its feature vector on every call.
TEST(TabulatedSurface, PredictionAllocatesNothing) {
  if (!obs::alloc_hook_compiled()) {
    GTEST_SKIP() << "allocation counting needs -DRAC_ALLOC_HOOK=ON";
  }
  const InitialPolicy policy = fitted_policy(4);
  util::Rng rng(41);
  std::vector<Configuration> configs;
  for (int i = 0; i < 1000; ++i) {
    configs.push_back(config::ConfigSpace::random_fine(rng));
  }
  const auto allocations = [](auto&& body) {
    const std::uint64_t before = obs::process_stats().alloc_count;
    obs::set_alloc_counting(true);
    body();
    obs::set_alloc_counting(false);
    return obs::process_stats().alloc_count - before;
  };
  double sum = 0.0;
  EXPECT_EQ(allocations([&] {
              for (const Configuration& c : configs) {
                sum += policy.predict_response_ms(c);
              }
            }),
            0u);
  EXPECT_TRUE(std::isfinite(sum));
  // The premise: the counter sees the reference path's two vectors a call.
  EXPECT_GE(allocations([&] {
              for (const Configuration& c : configs) {
                sum += policy.surface.regression().predict(
                    c.normalized_values());
              }
            }),
            2 * configs.size());
}

TEST(PolicyLibrary, FindsExactContext) {
  InitialPolicyLibrary lib;
  InitialPolicy p1;
  p1.context = {MixType::kShopping, VmLevel::kLevel1};
  InitialPolicy p2;
  p2.context = {MixType::kOrdering, VmLevel::kLevel3};
  lib.add(p1);
  lib.add(p2);
  EXPECT_EQ(lib.find_context({MixType::kOrdering, VmLevel::kLevel3}), 1u);
  EXPECT_FALSE(
      lib.find_context({MixType::kBrowsing, VmLevel::kLevel2}).has_value());
}

TEST(PolicyLibrary, EmptyLibraryMatchesNothing) {
  const InitialPolicyLibrary lib;
  EXPECT_FALSE(lib.best_match(Configuration{}, 500.0).has_value());
  EXPECT_TRUE(lib.empty());
}

TEST(PolicyLibrary, BestMatchPicksPolicyExplainingMeasurement) {
  // Train two very different contexts; a measurement taken in one context
  // must match that context's policy.
  auto make = [](const SystemContext& ctx) {
    AnalyticEnv env(ctx, quiet_env());
    return learn_initial_policy(env, fast_options());
  };
  const SystemContext light{MixType::kShopping, VmLevel::kLevel1};
  const SystemContext heavy{MixType::kOrdering, VmLevel::kLevel3};
  InitialPolicyLibrary lib;
  lib.add(make(light));
  lib.add(make(heavy));

  AnalyticEnv light_env(light, quiet_env());
  AnalyticEnv heavy_env(heavy, quiet_env());
  const Configuration c;
  EXPECT_EQ(lib.best_match(c, light_env.evaluate(c).response_ms), 0u);
  EXPECT_EQ(lib.best_match(c, heavy_env.evaluate(c).response_ms), 1u);
}

// A policy whose surface predicts the same response everywhere: weights
// are all zero except the intercept, which carries log(response_ms).
InitialPolicy constant_policy(double response_ms) {
  InitialPolicy p;
  constexpr std::size_t dim = config::kNumParams;
  constexpr int degree = 2;
  constexpr std::size_t features =
      1 + static_cast<std::size_t>(degree) * dim + dim * (dim - 1) / 2;
  std::vector<double> weights(features, 0.0);
  weights[0] = std::log(response_ms);
  p.surface = TabulatedSurface(util::QuadraticSurface::from_parts(
      util::LinearModel(std::move(weights)), dim, degree,
      std::vector<double>(dim, 0.0), std::vector<double>(dim, 1.0)));
  return p;
}

TEST(PolicyLibrary, BestMatchDistinguishesSubMillisecondSurfaces) {
  // Regression: an earlier 1.0 ms floor in the match scoring (and a 0
  // lower bound on the surface exponent) collapsed every sub-millisecond
  // prediction and measurement to the same score, so the library "tied"
  // to policy 0 regardless of which surface explained the measurement.
  InitialPolicyLibrary lib;
  lib.add(constant_policy(0.2));
  lib.add(constant_policy(0.6));
  EXPECT_DOUBLE_EQ(lib.at(0).predict_response_ms(Configuration{}), 0.2);
  EXPECT_EQ(lib.best_match(Configuration{}, 0.6), 1u);
  EXPECT_EQ(lib.best_match(Configuration{}, 0.2), 0u);
}

TEST(PolicyLibrary, ExactScoreTiesResolveToLowestIndex) {
  InitialPolicyLibrary lib;
  lib.add(constant_policy(0.5));
  lib.add(constant_policy(0.5));
  lib.add(constant_policy(0.5));
  EXPECT_EQ(lib.best_match(Configuration{}, 123.0), 0u);
  EXPECT_EQ(lib.best_match(Configuration{}, 0.001), 0u);
}

TEST(PolicyLibrary, BuildLibraryTrainsEveryContext) {
  const std::vector<SystemContext> contexts = {
      {MixType::kShopping, VmLevel::kLevel1},
      {MixType::kOrdering, VmLevel::kLevel2},
  };
  const auto lib = build_library(
      contexts,
      [](const SystemContext& ctx) {
        return std::make_unique<AnalyticEnv>(ctx, quiet_env());
      },
      fast_options());
  ASSERT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.at(0).context, contexts[0]);
  EXPECT_EQ(lib.at(1).context, contexts[1]);
}

}  // namespace
}  // namespace rac::core
