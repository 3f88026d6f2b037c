#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/static_agent.hpp"
#include "core/snapshot.hpp"
#include "env/analytic_env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace rac::core {
namespace {

using config::Configuration;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

AnalyticEnvOptions quiet_env() {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  return opt;
}

TEST(Runner, RecordsEveryIteration) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  const auto trace = run_agent(env, agent, {}, 10);
  EXPECT_EQ(trace.agent, "static-default");
  ASSERT_EQ(trace.records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(trace.records[static_cast<std::size_t>(i)].iteration, i);
    EXPECT_GT(trace.records[static_cast<std::size_t>(i)].response_ms, 0.0);
    EXPECT_EQ(trace.records[static_cast<std::size_t>(i)].configuration,
              Configuration::defaults());
  }
}

TEST(Runner, AppliesScheduleAtRequestedIterations) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  const ContextSchedule schedule = {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {5, {MixType::kOrdering, VmLevel::kLevel3}},
  };
  const auto trace = run_agent(env, agent, schedule, 10);
  EXPECT_EQ(trace.records[4].context.level, VmLevel::kLevel1);
  EXPECT_EQ(trace.records[5].context.level, VmLevel::kLevel3);
  // The heavier context must be visibly slower.
  EXPECT_GT(trace.records[9].response_ms, 2.0 * trace.records[0].response_ms);
}

TEST(Runner, RejectsUnsortedSchedule) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  const ContextSchedule out_of_order = {
      {5, {MixType::kShopping, VmLevel::kLevel1}},
      {2, {MixType::kOrdering, VmLevel::kLevel1}},
  };
  EXPECT_THROW(run_agent(env, agent, out_of_order, 10), std::invalid_argument);
}

TEST(Runner, RejectsDuplicateScheduleStarts) {
  // Two entries at the same iteration: only one can win, so the schedule
  // is ambiguous and must be rejected, not silently resolved.
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  const ContextSchedule duplicate = {
      {5, {MixType::kShopping, VmLevel::kLevel1}},
      {5, {MixType::kOrdering, VmLevel::kLevel1}},
  };
  EXPECT_THROW(run_agent(env, agent, duplicate, 10), std::invalid_argument);
}

TEST(Runner, RejectsNegativeScheduleStart) {
  // The fleet layer feeds thousands of generated schedules through here; a
  // negative start would be skipped by the fast-forward loop and its
  // context applied as if it shadowed iteration 0 -- reject it instead.
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  const ContextSchedule negative = {
      {-1, {MixType::kShopping, VmLevel::kLevel1}},
      {5, {MixType::kOrdering, VmLevel::kLevel1}},
  };
  EXPECT_THROW(run_agent(env, agent, negative, 10), std::invalid_argument);
}

TEST(AgentTrace, MeanOverRanges) {
  AgentTrace trace;
  for (int i = 0; i < 6; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.response_ms = 100.0 * (i + 1);
    trace.records.push_back(r);
  }
  EXPECT_DOUBLE_EQ(trace.mean_response_ms(), 350.0);
  EXPECT_DOUBLE_EQ(trace.mean_response_ms(0, 3), 200.0);
  EXPECT_DOUBLE_EQ(trace.mean_response_ms(3), 500.0);
}

// An empty or inverted range has no mean: the result is quiet NaN, never a
// fabricated 0 that would dilute a caller's average of per-segment means.
TEST(AgentTrace, MeanOverEmptyOrInvertedRangeIsNaN) {
  AgentTrace trace;
  for (int i = 0; i < 6; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.response_ms = 100.0 * (i + 1);
    trace.records.push_back(r);
  }
  EXPECT_TRUE(std::isnan(trace.mean_response_ms(4, 4)));   // empty
  EXPECT_TRUE(std::isnan(trace.mean_response_ms(5, 2)));   // inverted
  EXPECT_TRUE(std::isnan(trace.mean_response_ms(6)));      // from == size
  EXPECT_TRUE(std::isnan(trace.mean_response_ms(99, -1))); // from > size
  EXPECT_TRUE(std::isnan(trace.mean_response_ms(-5, 0)));  // clamps to [0,0)
  // One-record ranges at both edges still have a mean.
  EXPECT_DOUBLE_EQ(trace.mean_response_ms(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(trace.mean_response_ms(5, 6), 600.0);
  EXPECT_DOUBLE_EQ(trace.mean_response_ms(5, 99), 600.0);  // to clamps down
}

TEST(AgentTrace, SettledIterationDetectsStabilization) {
  AgentTrace trace;
  // 10 wild iterations, then flat.
  for (int i = 0; i < 30; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.response_ms = i < 10 ? (i % 2 == 0 ? 100.0 : 900.0) : 200.0;
    trace.records.push_back(r);
  }
  const int settled = trace.settled_iteration(0, -1, 5, 0.25);
  EXPECT_GE(settled, 9);
  EXPECT_LE(settled, 12);
}

TEST(AgentTrace, NeverSettlingReturnsMinusOne) {
  AgentTrace trace;
  for (int i = 0; i < 30; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.response_ms = i % 2 == 0 ? 100.0 : 900.0;
    trace.records.push_back(r);
  }
  EXPECT_EQ(trace.settled_iteration(0, -1, 5, 0.25), -1);
}

TEST(AgentTrace, SettledIterationOnEmptyTrace) {
  const AgentTrace trace;
  EXPECT_EQ(trace.settled_iteration(0), -1);
  EXPECT_EQ(trace.settled_iteration(0, -1), -1);
  EXPECT_EQ(trace.settled_iteration(5, 10), -1);
  EXPECT_TRUE(std::isnan(trace.mean_response_ms()));
}

TEST(AgentTrace, SettledIterationToMinusOneMeansEndOfTrace) {
  AgentTrace trace;
  for (int i = 0; i < 20; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.response_ms = i < 5 ? 900.0 : 200.0;
    trace.records.push_back(r);
  }
  EXPECT_EQ(trace.settled_iteration(0, -1, 5, 0.25),
            trace.settled_iteration(0, 20, 5, 0.25));
  // A window that never fits in the range cannot settle.
  EXPECT_EQ(trace.settled_iteration(0, 3, 5, 0.25), -1);
  // from beyond the records: nothing to settle.
  EXPECT_EQ(trace.settled_iteration(25, -1, 5, 0.25), -1);
}

// Regression (PR 5): a non-finite response time folded into the prefix
// sums made every later window mean NaN, and the `!(mean > 0 && ...)`
// comparison then counted those positions as stable -- so a trace
// poisoned by one bad sensor reading "settled" immediately after it.
TEST(AgentTrace, NonFiniteSampleCannotSettleOrPoisonLaterWindows) {
  AgentTrace trace;
  for (int i = 0; i < 30; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.response_ms = i < 10 ? (i % 2 == 0 ? 100.0 : 900.0) : 200.0;
    trace.records.push_back(r);
  }
  trace.records[12].response_ms = std::numeric_limits<double>::quiet_NaN();
  const int settled = trace.settled_iteration(0, -1, 5, 0.25);
  // Settles only once every trailing window excludes the NaN at 12.
  EXPECT_EQ(settled, 13);

  trace.records[12].response_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(trace.settled_iteration(0, -1, 5, 0.25), 13);

  // A NaN in the last window means no candidate is ever stable.
  trace.records[29].response_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(trace.settled_iteration(0, -1, 5, 0.25), -1);
}

// Direct transliteration of settled_iteration's documented contract
// (O(n^2 * window)); the shipped implementation is the O(n * window)
// prefix-sum rewrite and must agree everywhere.
int settled_naive(const AgentTrace& t, int from, int to, int window,
                  double tolerance) {
  const int n = to < 0 ? static_cast<int>(t.records.size())
                       : std::min(to, static_cast<int>(t.records.size()));
  const int first = std::max(from, 0);
  if (window < 1 || first + window > n) return -1;
  for (int candidate = first; candidate + window <= n; ++candidate) {
    bool stable = true;
    for (int i = candidate; stable && i < n; ++i) {
      const int lo = std::max(candidate, i - window + 1);
      double mean = 0.0;
      for (int j = lo; j <= i; ++j) {
        mean += t.records[static_cast<std::size_t>(j)].response_ms;
      }
      mean /= static_cast<double>(i - lo + 1);
      const double rt = t.records[static_cast<std::size_t>(i)].response_ms;
      if (mean > 0.0 && std::abs(rt - mean) / mean > tolerance) {
        stable = false;
      }
    }
    if (stable) return candidate;
  }
  return -1;
}

AgentTrace trace_from(const std::vector<double>& responses) {
  AgentTrace trace;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    IterationRecord r;
    r.iteration = static_cast<int>(i);
    r.response_ms = responses[i];
    trace.records.push_back(r);
  }
  return trace;
}

TEST(AgentTrace, SettledIterationMatchesNaiveReferenceOnRandomTraces) {
  util::Rng rng(97);
  for (int round = 0; round < 40; ++round) {
    std::vector<double> responses;
    const int n = rng.uniform_int(0, 50);
    const int noisy_prefix = n == 0 ? 0 : rng.uniform_int(0, n);
    for (int i = 0; i < n; ++i) {
      // Wild prefix, then a noisy plateau -- plus occasional pure noise.
      const double base = i < noisy_prefix ? rng.uniform(50.0, 950.0)
                                           : 200.0 + rng.uniform(-40.0, 40.0);
      responses.push_back(base);
    }
    const AgentTrace trace = trace_from(responses);
    for (const int window : {1, 2, 5, 8}) {
      for (const int from : {0, 3, n / 2}) {
        for (const int to : {-1, n / 2, n}) {
          EXPECT_EQ(trace.settled_iteration(from, to, window, 0.25),
                    settled_naive(trace, from, to, window, 0.25))
              << "n=" << n << " window=" << window << " from=" << from
              << " to=" << to;
        }
      }
    }
  }
}

TEST(AgentTrace, SettledIterationMatchesNaiveOnStepTrace) {
  std::vector<double> responses;
  for (int i = 0; i < 40; ++i) {
    responses.push_back(i < 12 ? (i % 2 == 0 ? 100.0 : 900.0) : 250.0);
  }
  const AgentTrace trace = trace_from(responses);
  for (int from = 0; from < 40; from += 7) {
    for (const int window : {1, 3, 5, 10}) {
      EXPECT_EQ(trace.settled_iteration(from, -1, window, 0.25),
                settled_naive(trace, from, -1, window, 0.25));
    }
  }
}

TEST(Runner, RejectsMalformedCheckpointAndResumeOptions) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  RunOptions bad;
  bad.checkpoint_every = 5;  // no checkpoint_path
  EXPECT_THROW(run_agent(env, agent, {}, 10, bad), std::invalid_argument);
  RunOptions negative;
  negative.checkpoint_every = -1;
  EXPECT_THROW(run_agent(env, agent, {}, 10, negative),
               std::invalid_argument);
  RunOptions early;
  early.start_iteration = -1;
  EXPECT_THROW(run_agent(env, agent, {}, 10, early), std::invalid_argument);
  RunOptions late;
  late.start_iteration = 11;
  EXPECT_THROW(run_agent(env, agent, {}, 10, late), std::invalid_argument);
}

TEST(Runner, CheckpointingRejectsAgentsWithoutSaveState) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;  // default save_state: unsupported
  RunOptions options;
  options.checkpoint_every = 1;
  options.checkpoint_path =
      ::testing::TempDir() + "/rac_runner_nosave.rac";
  EXPECT_THROW(run_agent(env, agent, {}, 3, options), std::invalid_argument);
}

// Saves a shorter state at every checkpoint, as an agent does when a
// policy switch replaces its table with a smaller one.
class ShrinkingStateAgent final : public baselines::StaticDefaultAgent {
 public:
  bool save_state(std::ostream& os) const override {
    last_ = std::string(static_cast<std::size_t>(400 - 100 * saves_), 'x') +
            std::to_string(saves_);
    ++saves_;
    os << last_;
    return true;
  }
  const std::string& last() const { return last_; }

 private:
  mutable int saves_ = 0;
  mutable std::string last_;
};

TEST(Runner, CheckpointHoldsExactlyTheAgentsLatestState) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  ShrinkingStateAgent agent;
  obs::Registry registry;
  RunOptions options;
  options.checkpoint_every = 1;
  options.checkpoint_path = ::testing::TempDir() + "/rac_runner_shrink.rac";
  options.registry = &registry;
  run_agent(env, agent, {}, 3, options);
  EXPECT_EQ(load_checkpoint_file(options.checkpoint_path).agent_state,
            agent.last());
  EXPECT_EQ(registry.counter("core.checkpoint.bytes").value(),
            401u + 301u + 201u);
  std::remove(options.checkpoint_path.c_str());
}

TEST(Runner, StartIterationResumesNumberingAndSchedule) {
  // A resumed run's records continue the absolute numbering, and the
  // schedule entry shadowing the resume point is applied up front.
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  const ContextSchedule schedule = {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {4, {MixType::kOrdering, VmLevel::kLevel3}},
  };
  RunOptions resume;
  resume.start_iteration = 6;
  const auto trace = run_agent(env, agent, schedule, 10, resume);
  ASSERT_EQ(trace.records.size(), 4u);
  EXPECT_EQ(trace.records.front().iteration, 6);
  EXPECT_EQ(trace.records.back().iteration, 9);
  EXPECT_EQ(trace.records.front().context.level, VmLevel::kLevel3);
  EXPECT_EQ(trace.records.front().context.mix, MixType::kOrdering);
}

TEST(Runner, EmitsOneTraceEventPerIteration) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  obs::MemoryTraceSink sink;
  RunOptions options;
  options.sink = &sink;
  const ContextSchedule schedule = {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {4, {MixType::kOrdering, VmLevel::kLevel3}},
  };
  const auto trace = run_agent(env, agent, schedule, 8, options);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto& event = events[static_cast<std::size_t>(i)];
    const auto& record = trace.records[static_cast<std::size_t>(i)];
    EXPECT_EQ(event.iteration, i);
    EXPECT_EQ(event.agent, "static-default");
    const auto& values = record.configuration.values();
    EXPECT_EQ(event.state, std::vector<int>(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(event.response_ms, record.response_ms);
    EXPECT_DOUBLE_EQ(event.throughput_rps, record.throughput_rps);
    EXPECT_EQ(event.context, record.context.name());
  }
  EXPECT_EQ(events[3].context,
            (SystemContext{MixType::kShopping, VmLevel::kLevel1}.name()));
  EXPECT_EQ(events[4].context,
            (SystemContext{MixType::kOrdering, VmLevel::kLevel3}.name()));
}

TEST(Runner, NullSinkRunsWithoutTracing) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, quiet_env());
  baselines::StaticDefaultAgent agent;
  RunOptions options;  // sink stays nullptr
  const auto trace = run_agent(env, agent, {}, 5, options);
  EXPECT_EQ(trace.records.size(), 5u);
}

}  // namespace
}  // namespace rac::core
