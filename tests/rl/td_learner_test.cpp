#include "rl/td_learner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "rl/policy.hpp"
#include "util/contracts.hpp"

namespace rac::rl {
namespace {

using config::Action;
using config::Configuration;
using config::ConfigSpace;
using config::ParamId;

// A reward model with a single best configuration: reward 0 at the target
// and increasingly negative with the L1 distance from it. Keeping rewards
// non-positive makes the zero-initialized Q-table optimistic, so the
// epsilon-greedy sweeps explore systematically (the production reward,
// (SLA - rt)/SLA, behaves the same way in the interesting slower-than-SLA
// region).
RewardFn distance_reward(const Configuration& target) {
  return [target](const Configuration& c) {
    double distance = 0.0;
    for (ParamId id : config::kAllParams) {
      distance += std::abs(c.normalized(id) - target.normalized(id));
    }
    return -distance;
  };
}

TEST(TdLearner, LearnsGreedyPathTowardRewardPeak) {
  Configuration target;
  target.set(ParamId::kMaxClients, 250);  // 4 fine steps above default
  QTable table;
  util::Rng rng(1);
  TdParams params;
  params.max_sweeps = 200;
  params.trajectory_limit = 8;
  const std::vector<Configuration> starts = {Configuration{}};
  const auto result =
      batch_train(table, starts, distance_reward(target), params, rng);
  EXPECT_GT(result.sweeps, 0);

  // Greedy walk from the default must reach the target.
  Configuration s;
  for (int i = 0; i < 10; ++i) {
    const Action a = table.best_action(s);
    if (a.is_keep()) break;
    s = ConfigSpace::apply(s, a);
  }
  EXPECT_EQ(s.value(ParamId::kMaxClients), 250);
}

TEST(TdLearner, GreedyPolicyStaysAtOptimum) {
  Configuration target;  // the default itself is optimal
  QTable table;
  util::Rng rng(2);
  TdParams params;
  params.max_sweeps = 150;
  const std::vector<Configuration> starts = {target};
  batch_train(table, starts, distance_reward(target), params, rng);
  EXPECT_TRUE(table.best_action(target).is_keep());
}

TEST(TdLearner, ConvergesBelowTheta) {
  QTable table;
  util::Rng rng(3);
  TdParams params;
  params.max_sweeps = 2000;
  params.theta = 1e-4;
  const std::vector<Configuration> starts = {Configuration{}};
  // Constant reward: Q converges to r/(1-gamma) everywhere reachable.
  const auto result = batch_train(
      table, starts, [](const Configuration&) { return 1.0; }, params, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.final_error, params.theta);
  EXPECT_NEAR(table.max_q(Configuration{}), 1.0 / (1.0 - params.gamma), 0.05);
}

TEST(TdLearner, EmptyStartStatesIsTriviallyConverged) {
  QTable table;
  util::Rng rng(4);
  const std::vector<Configuration> starts;
  const auto result = batch_train(
      table, starts, [](const Configuration&) { return 0.0; }, TdParams{},
      rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.sweeps, 0);
  EXPECT_TRUE(table.empty());
}

TEST(TdLearner, RespectsSweepBudget) {
  QTable table;
  util::Rng rng(5);
  TdParams params;
  params.max_sweeps = 3;
  params.theta = 0.0;  // never converges
  const std::vector<Configuration> starts = {Configuration{}};
  const auto result = batch_train(
      table, starts, [](const Configuration&) { return 1.0; }, params, rng);
  EXPECT_EQ(result.sweeps, 3);
  EXPECT_FALSE(result.converged);
}

TEST(TdLearner, HigherRewardNeighborGetsHigherQ) {
  Configuration target;
  target.set(ParamId::kSessionTimeout, 35);
  QTable table;
  util::Rng rng(6);
  TdParams params;
  params.max_sweeps = 120;
  const std::vector<Configuration> starts = {Configuration{}};
  batch_train(table, starts, distance_reward(target), params, rng);
  const Configuration s;
  EXPECT_GT(table.q(s, Action::increase(ParamId::kSessionTimeout)),
            table.q(s, Action::decrease(ParamId::kSessionTimeout)));
}

TEST(TdLearner, ValidatesParameters) {
  QTable table;
  util::Rng rng(7);
  const std::vector<Configuration> starts = {Configuration{}};
  const RewardFn r = [](const Configuration&) { return 0.0; };
  TdParams bad;
  bad.alpha = 0.0;
  EXPECT_THROW(batch_train(table, starts, r, bad, rng), std::invalid_argument);
  bad = TdParams{};
  bad.gamma = 1.0;
  EXPECT_THROW(batch_train(table, starts, r, bad, rng), std::invalid_argument);
  bad = TdParams{};
  bad.trajectory_limit = 0;
  EXPECT_THROW(batch_train(table, starts, r, bad, rng), std::invalid_argument);
  EXPECT_THROW(batch_train(table, starts, RewardFn{}, TdParams{}, rng),
               std::invalid_argument);
}

// Regression for the contract migration: a NaN reward silently poisons
// every Q-value it touches (NaN propagates through the backup and then
// wins every max comparison inconsistently). The post-batch RAC_AUDIT
// sweep catches it in audit builds; default builds run the same train
// unchecked, so this test asserts the audit fires exactly when enabled.
TEST(TdLearner, AuditCatchesNaNRewardPoisoning) {
  QTable table;
  util::Rng rng(8);
  TdParams params;
  params.max_sweeps = 2;
  const std::vector<Configuration> starts = {Configuration{}};
  const RewardFn nan_reward = [](const Configuration&) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  if (util::kAuditEnabled) {
    EXPECT_THROW(batch_train(table, starts, nan_reward, params, rng),
                 util::ContractViolation);
  } else {
    EXPECT_NO_THROW(batch_train(table, starts, nan_reward, params, rng));
  }
}

// --- Oracle: Algorithm 1 transcribed by configuration ---------------------
//
// batch_train resolves states to table rows, creates warm rows for
// neighbors, and memoizes neighbor rows and rewards in per-batch scratch.
// The reference below does none of that: it is the algorithm exactly as
// td_learner.hpp documents it -- a full backup of every action at each
// visited state, the epsilon-greedy walk through EpsilonGreedy::select,
// rewards memoized per configuration in a std::map, and every Q read and
// write keyed by configuration. The two must agree bit for bit.

using ConfigKey = std::array<int, config::kNumParams>;

TdResult reference_train(QTable& table, std::span<const Configuration> starts,
                         const RewardFn& reward, const TdParams& params,
                         util::Rng& rng) {
  const EpsilonGreedy policy(params.epsilon);
  TdResult result;
  std::map<ConfigKey, double> rewards;
  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double error = 0.0;
    for (const Configuration& start : starts) {
      Configuration s = start;
      for (int step = 0; step < params.trajectory_limit; ++step) {
        for (const Action a : ConfigSpace::all_actions()) {
          const Configuration next = ConfigSpace::apply(s, a);
          auto it = rewards.find(next.values());
          if (it == rewards.end()) {
            it = rewards.emplace(next.values(), reward(next)).first;
          }
          const double td =
              it->second + params.gamma * table.max_q(next) - table.q(s, a);
          const double delta = params.alpha * td;
          table.add_q(s, a, delta);
          error = std::max(error, std::abs(delta));
        }
        s = ConfigSpace::apply(s, policy.select(table, s, rng));
      }
    }
    result.sweeps = sweep + 1;
    result.final_error = error;
    if (error < params.theta) {
      result.converged = true;
      break;
    }
  }
  return result;
}

// Wraps `inner`, appending every argument it is called with to `calls`.
RewardFn recording(RewardFn inner, std::vector<ConfigKey>& calls) {
  return [inner = std::move(inner), &calls](const Configuration& c) {
    calls.push_back(c.values());
    return inner(c);
  };
}

std::vector<ConfigKey> sorted_states(const QTable& table) {
  std::vector<ConfigKey> out;
  for (const Configuration& c : table.states()) out.push_back(c.values());
  std::sort(out.begin(), out.end());
  return out;
}

// Runs batch_train on `fast` and the reference on `ref` (equal tables, equal
// RNG streams) and requires identical outcomes: TdResult, RNG state, the
// reward function's argument sequence, the written state set, and every
// Q-value bit. Row order may differ (the reference creates no warm rows).
void expect_matches_reference(QTable& fast, QTable& ref,
                              std::span<const Configuration> starts,
                              const RewardFn& reward, const TdParams& params,
                              util::Rng& fast_rng, util::Rng& ref_rng) {
  std::vector<ConfigKey> fast_calls;
  std::vector<ConfigKey> ref_calls;
  obs::Registry registry;
  const TdResult got = batch_train(fast, starts, recording(reward, fast_calls),
                                   params, fast_rng, &registry);
  const TdResult want =
      reference_train(ref, starts, recording(reward, ref_calls), params,
                      ref_rng);

  EXPECT_EQ(got.sweeps, want.sweeps);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_error),
            std::bit_cast<std::uint64_t>(want.final_error));
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(registry.counter("rl.td.backups").value(),
            static_cast<std::uint64_t>(want.sweeps) * starts.size() *
                static_cast<std::uint64_t>(params.trajectory_limit) *
                config::kNumActions);

  const util::RngState fast_state = fast_rng.state();
  const util::RngState ref_state = ref_rng.state();
  EXPECT_EQ(fast_state.words, ref_state.words);
  EXPECT_EQ(fast_state.has_cached_normal, ref_state.has_cached_normal);

  EXPECT_FALSE(ref_calls.empty());
  EXPECT_TRUE(fast_calls == ref_calls)
      << "reward calls: batch_train " << fast_calls.size() << ", reference "
      << ref_calls.size();

  const std::vector<ConfigKey> written = sorted_states(ref);
  ASSERT_TRUE(sorted_states(fast) == written)
      << "written states: batch_train " << fast.size() << ", reference "
      << ref.size();
  std::size_t mismatched = 0;
  for (const ConfigKey& key : written) {
    const Configuration s(key);
    for (const Action a : ConfigSpace::all_actions()) {
      if (std::bit_cast<std::uint64_t>(fast.q(s, a)) !=
          std::bit_cast<std::uint64_t>(ref.q(s, a))) {
        ++mismatched;
      }
    }
  }
  EXPECT_EQ(mismatched, 0U) << "of " << written.size() * config::kNumActions
                            << " Q-values";
}

// Every parameter at the same normalized position `t` of its range.
Configuration at_position(double t) {
  Configuration c;
  for (ParamId id : config::kAllParams) c.set_normalized(id, t);
  return ConfigSpace::snap_to_fine(c);
}

// Offline shape: an empty table trained from every coarse-grid sample.
TEST(TdLearnerOracle, OfflineBatchOverCoarseGridMatchesReference) {
  const std::vector<Configuration> grid = ConfigSpace(3).coarse_grid();
  TdParams params;
  params.trajectory_limit = 6;
  params.max_sweeps = 25;
  QTable fast;
  QTable ref;
  util::Rng fast_rng(21);
  util::Rng ref_rng(21);
  expect_matches_reference(fast, ref, grid, distance_reward(at_position(0.4)),
                           params, fast_rng, ref_rng);
  EXPECT_GT(fast.size(), grid.size());
}

// Online shape: three consecutive retrains of a library table that already
// carries warm rows (and a non-zero default), each from a growing set of
// experienced states under a shifted reward, as the agent retrains after
// every measurement interval.
TEST(TdLearnerOracle, ConsecutiveRetrainsOfTrainedLibraryMatchReference) {
  QTable library;
  library.set_default_q(-0.25);
  {
    TdParams offline;
    offline.max_sweeps = 30;
    util::Rng rng(22);
    batch_train(library, ConfigSpace(3).coarse_grid(),
                distance_reward(at_position(0.6)), offline, rng);
  }
  ASSERT_FALSE(library.empty());

  QTable fast = library;
  QTable ref = library;
  util::Rng fast_rng(23);
  util::Rng ref_rng(23);
  util::Rng walk(24);
  std::vector<Configuration> experienced;
  Configuration c = at_position(0.5);
  const TdParams online{0.1, 0.9, 0.1, 1e-3, 8, 40};
  for (int retrain = 0; retrain < 3; ++retrain) {
    SCOPED_TRACE(retrain);
    for (int i = 0; i < 6; ++i) {
      experienced.push_back(c);
      c = ConfigSpace::apply(
          c, Action(walk.uniform_int(0, config::kNumActions - 1)));
    }
    const RewardFn reward = distance_reward(at_position(0.3 + 0.1 * retrain));
    expect_matches_reference(fast, ref, experienced, reward, online, fast_rng,
                             ref_rng);
  }
}

// Per-call scratch must scale with the rows a retrain touches, not with the
// table: a short retrain of a 10^5-row table allocates kilobytes. The start
// state's row is created last, so scratch indexed by row would span the
// whole table; every state within two actions of it exists beforehand, so
// the retrain creates no rows and table growth stays out of the count.
TEST(TdLearner, RetrainScratchScalesWithTouchedRowsNotTable) {
  if (!obs::alloc_hook_compiled()) {
    GTEST_SKIP() << "allocation counting needs -DRAC_ALLOC_HOOK=ON";
  }
  QTable table;
  util::Rng rng(9);
  std::size_t rows = 0;
  for (int i = 0; i < 100000; ++i) {
    rows = std::max(rows, table.ensure_row(ConfigSpace::random_fine(rng)) + 1);
  }
  const Configuration start = at_position(0.55);
  ASSERT_EQ(table.find_row(start), QTable::npos);
  for (const Action a : ConfigSpace::all_actions()) {
    const Configuration one = ConfigSpace::apply(start, a);
    for (const Action b : ConfigSpace::all_actions()) {
      const Configuration two = ConfigSpace::apply(one, b);
      if (two != start) {
        rows = std::max(rows, table.ensure_row(two) + 1);
      }
    }
  }
  const std::size_t start_row = table.ensure_row(start);
  ASSERT_EQ(start_row, rows);
  ASSERT_GE(start_row, 100000U);
  const Configuration unseen = at_position(0.95);
  ASSERT_EQ(table.find_row(unseen), QTable::npos);

  TdParams params;
  params.trajectory_limit = 2;
  params.max_sweeps = 2;
  params.theta = 0.0;
  const std::vector<Configuration> starts = {start};
  const RewardFn reward = distance_reward(at_position(0.5));
  obs::Registry registry;
  {
    // Create the registry's rl.td.* handles outside the counted window.
    QTable warmup;
    util::Rng warmup_rng(10);
    batch_train(warmup, starts, reward, params, warmup_rng, &registry);
  }

  const std::uint64_t before = obs::process_stats().alloc_bytes;
  obs::set_alloc_counting(true);
  const TdResult result =
      batch_train(table, starts, reward, params, rng, &registry);
  obs::set_alloc_counting(false);
  const std::uint64_t allocated = obs::process_stats().alloc_bytes - before;

  EXPECT_EQ(result.sweeps, 2);
  EXPECT_LT(allocated, 64U * 1024U);
  // The premise: the retrain created no rows, so every counted byte is
  // the learner's own scratch.
  EXPECT_EQ(table.ensure_row(unseen), start_row + 1);
}

}  // namespace
}  // namespace rac::rl
