#include "fault/fault_env.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "config/configuration.hpp"
#include "env/analytic_env.hpp"
#include "env/context.hpp"
#include "obs/metrics.hpp"

namespace rac::fault {
namespace {

using config::Configuration;
using config::ParamId;

// Records every interaction and returns a distinct deterministic sample
// per call (so freezes/spikes are visible), shifted by the context (so
// surges are visible).
class FakeEnv final : public env::Environment {
 public:
  explicit FakeEnv(env::SystemContext ctx = env::table2_context(1))
      : ctx_(ctx) {}

  env::Measurement measure_interval(const Configuration& c) override {
    ++calls;
    measured_configs.push_back(c);
    measured_contexts.push_back(ctx_);
    env::Measurement m;
    m.sample.response_ms =
        100.0 * calls + (ctx_.level == env::VmLevel::kLevel3 ? 10000.0 : 0.0);
    m.sample.throughput_rps = static_cast<double>(calls);
    return m;
  }
  void set_context(const env::SystemContext& c) override {
    context_sets.push_back(c);
    ctx_ = c;
  }
  env::SystemContext context() const override { return ctx_; }

  int calls = 0;
  std::vector<Configuration> measured_configs;
  std::vector<env::SystemContext> measured_contexts;
  std::vector<env::SystemContext> context_sets;

 private:
  env::SystemContext ctx_;
};

FaultEpisode episode(FaultKind kind, int start, int duration = 1,
                     double magnitude = 0.0,
                     std::optional<env::SystemContext> surge = std::nullopt) {
  FaultEpisode e;
  e.kind = kind;
  e.start_interval = start;
  e.duration = duration;
  e.magnitude = magnitude;
  e.surge_context = surge;
  return e;
}

bool same_decision(const FaultDecision& a, const FaultDecision& b) {
  return a.drop == b.drop && a.spike == b.spike && a.freeze == b.freeze &&
         a.reconfig_fail == b.reconfig_fail && a.surge == b.surge;
}

FaultProfile stochastic_profile() {
  FaultProfile p;
  p.drop_prob = 0.30;
  p.spike_prob = 0.20;
  p.freeze_prob = 0.25;
  p.reconfig_fail_prob = 0.15;
  p.surge_prob = 0.10;
  p.surge_context = env::table2_context(3);
  return p;
}

TEST(FaultyEnv, RejectsInvalidOptions) {
  EXPECT_THROW(FaultyEnv(nullptr, FaultyEnvOptions{}), std::invalid_argument);

  const auto reject = [](FaultyEnvOptions opt) {
    EXPECT_THROW(FaultyEnv(std::make_unique<FakeEnv>(), std::move(opt)),
                 std::invalid_argument);
  };
  FaultyEnvOptions opt;
  opt.profile.drop_prob = 1.5;
  reject(opt);
  opt = {};
  opt.profile.spike_prob = -0.1;
  reject(opt);
  opt = {};
  opt.profile.spike_multiplier = 0.0;
  reject(opt);
  opt = {};
  opt.profile.surge_prob = 0.5;  // no surge_context anywhere
  reject(opt);
  opt = {};
  opt.schedule.push_back(episode(FaultKind::kDrop, -1));
  reject(opt);
  opt = {};
  opt.schedule.push_back(episode(FaultKind::kDrop, 0, 0));
  reject(opt);
  opt = {};
  opt.schedule.push_back(episode(FaultKind::kSpike, 0, 1, -2.0));
  reject(opt);
  opt = {};
  opt.schedule.push_back(episode(FaultKind::kSurge, 0));  // no context
  reject(opt);
}

TEST(FaultyEnv, NoFaultsIsTransparent) {
  FakeEnv bare;
  FaultyEnv wrapped(std::make_unique<FakeEnv>(), FaultyEnvOptions{});
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(wrapped.faults_at(i).any());
    const env::PerfSample expect = bare.measure(Configuration::defaults());
    const env::Measurement got =
        wrapped.measure_interval(Configuration::defaults());
    ASSERT_FALSE(got.lost);
    EXPECT_EQ(got.sample.response_ms, expect.response_ms);
    EXPECT_EQ(got.sample.throughput_rps, expect.throughput_rps);
    EXPECT_EQ(got.fault_note, "");
  }
  // The reported and true histories coincide on a clean run.
  ASSERT_EQ(wrapped.true_history().size(), 5u);
  EXPECT_EQ(wrapped.true_history().back().throughput_rps, 5.0);
}

TEST(FaultyEnv, FaultScriptIsDeterministicAndPure) {
  FaultyEnvOptions opt;
  opt.profile = stochastic_profile();
  opt.seed = 2026;
  FaultyEnv a(std::make_unique<FakeEnv>(), opt);
  FaultyEnv b(std::make_unique<FakeEnv>(), opt);

  // Same seed + profile: bitwise-identical fault sequence.
  int any_count = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(same_decision(a.faults_at(i), b.faults_at(i))) << i;
    if (a.faults_at(i).any()) ++any_count;
  }
  EXPECT_GT(any_count, 0);

  // The decision is a pure function of the interval: measuring (which
  // consumes inner-environment state) must not shift the script, and
  // re-querying must reproduce the answer.
  const FaultDecision before = a.faults_at(7);
  for (int i = 0; i < 50; ++i) a.measure(Configuration::defaults());
  EXPECT_TRUE(same_decision(before, a.faults_at(7)));
  EXPECT_TRUE(same_decision(a.faults_at(123), b.faults_at(123)));

  // A different seed produces a different script.
  FaultyEnvOptions other = opt;
  other.seed = 2027;
  FaultyEnv c(std::make_unique<FakeEnv>(), other);
  bool differs = false;
  for (int i = 0; i < 200 && !differs; ++i) {
    differs = !same_decision(a.faults_at(i), c.faults_at(i));
  }
  EXPECT_TRUE(differs);
}

TEST(FaultyEnv, ScheduleWindowsAndOverrides) {
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kDrop, 3, 2));
  opt.schedule.push_back(episode(FaultKind::kSpike, 10, 1, 7.0));
  opt.schedule.push_back(episode(FaultKind::kSpike, 11));
  opt.schedule.push_back(
      episode(FaultKind::kSurge, 12, 1, 0.0, env::table2_context(2)));
  FaultyEnv env(std::make_unique<FakeEnv>(), opt);

  EXPECT_FALSE(env.faults_at(2).drop);
  EXPECT_TRUE(env.faults_at(3).drop);
  EXPECT_TRUE(env.faults_at(4).drop);
  EXPECT_FALSE(env.faults_at(5).drop);

  EXPECT_TRUE(env.faults_at(10).spike);
  EXPECT_DOUBLE_EQ(env.faults_at(10).spike_multiplier, 7.0);
  // Magnitude 0 falls back to the profile's multiplier.
  EXPECT_TRUE(env.faults_at(11).spike);
  EXPECT_DOUBLE_EQ(env.faults_at(11).spike_multiplier, 25.0);

  const FaultDecision surge = env.faults_at(12);
  EXPECT_TRUE(surge.surge);
  ASSERT_TRUE(surge.surge_context.has_value());
  EXPECT_EQ(*surge.surge_context, env::table2_context(2));
}

// A drop's lost flag, sentinel and note are part of the environment
// contract suite (tests/env/environment_contract_test.cpp).

TEST(FaultyEnv, FreezeRepeatsTheLastReportedSample) {
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kFreeze, 1));
  FaultyEnv env(std::make_unique<FakeEnv>(), opt);
  const env::PerfSample r0 = env.measure(Configuration::defaults());
  const env::Measurement r1 =
      env.measure_interval(Configuration::defaults());
  EXPECT_EQ(r1.sample.response_ms, r0.response_ms);
  EXPECT_EQ(r1.sample.throughput_rps, r0.throughput_rps);
  EXPECT_EQ(r1.fault_note, "freeze");
  // Meanwhile the system actually produced a different sample.
  EXPECT_NE(env.true_history()[1].response_ms, r1.sample.response_ms);
}

TEST(FaultyEnv, FreezeWithNothingReportedYetIsANoOp) {
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kFreeze, 0));
  FaultyEnv env(std::make_unique<FakeEnv>(), opt);
  const env::PerfSample r0 = env.measure(Configuration::defaults());
  EXPECT_DOUBLE_EQ(r0.response_ms, 100.0);  // the truth, unfrozen
}

TEST(FaultyEnv, FreezeRepeatsLastReportedNotLastDropped) {
  // A drop leaves last_reported untouched: the freeze two intervals later
  // must repeat the last sample that actually arrived, not the sentinel.
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kDrop, 1));
  opt.schedule.push_back(episode(FaultKind::kFreeze, 2));
  opt.timeout_sentinel = {-1.0, 0.0};
  FaultyEnv env(std::make_unique<FakeEnv>(), opt);
  const env::PerfSample r0 = env.measure(Configuration::defaults());
  env.measure(Configuration::defaults());  // dropped
  const env::PerfSample r2 = env.measure(Configuration::defaults());
  EXPECT_EQ(r2.response_ms, r0.response_ms);
  EXPECT_EQ(r2.throughput_rps, r0.throughput_rps);
}

TEST(FaultyEnv, SpikeMultipliesOnlyTheReport) {
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kSpike, 0, 1, 9.0));
  FaultyEnv env(std::make_unique<FakeEnv>(), opt);
  const env::PerfSample reported = env.measure(Configuration::defaults());
  const env::PerfSample truth = env.true_history()[0];
  EXPECT_DOUBLE_EQ(reported.response_ms, truth.response_ms * 9.0);
  EXPECT_DOUBLE_EQ(reported.throughput_rps, truth.throughput_rps);
}

TEST(FaultyEnv, ReconfigFailKeepsThePreviouslyAppliedConfiguration) {
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);

  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kReconfigFail, 1));
  auto fake_owner = std::make_unique<FakeEnv>();
  FakeEnv* fake = fake_owner.get();
  FaultyEnv env(std::move(fake_owner), opt);
  env.measure(a);
  env.measure(b);  // actuation lost: the system still runs `a`
  env.measure(b);
  ASSERT_EQ(fake->measured_configs.size(), 3u);
  EXPECT_EQ(fake->measured_configs[0], a);
  EXPECT_EQ(fake->measured_configs[1], a);
  EXPECT_EQ(fake->measured_configs[2], b);
  EXPECT_EQ(env.state().applied_configuration, b);
}

TEST(FaultyEnv, FirstIntervalReconfigFailPassesThrough) {
  // Nothing was ever applied, so there is no "previous" to stick with.
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kReconfigFail, 0));
  auto fake_owner = std::make_unique<FakeEnv>();
  FakeEnv* fake = fake_owner.get();
  FaultyEnv env(std::move(fake_owner), opt);
  env.measure(b);
  ASSERT_EQ(fake->measured_configs.size(), 1u);
  EXPECT_EQ(fake->measured_configs[0], b);
}

TEST(FaultyEnv, SurgeMeasuresUnderTheSurgeContextThenRestores) {
  const auto scheduled = env::table2_context(1);
  const auto surge_ctx = env::table2_context(3);
  FaultyEnvOptions opt;
  opt.schedule.push_back(episode(FaultKind::kSurge, 0, 1, 0.0, surge_ctx));
  auto fake_owner = std::make_unique<FakeEnv>(scheduled);
  FakeEnv* fake = fake_owner.get();
  FaultyEnv env(std::move(fake_owner), opt);

  const env::PerfSample reported = env.measure(Configuration::defaults());
  ASSERT_EQ(fake->measured_contexts.size(), 1u);
  EXPECT_EQ(fake->measured_contexts[0], surge_ctx);
  EXPECT_EQ(env.context(), scheduled);  // restored afterwards
  // The surge is a context swap around the measurement.
  ASSERT_EQ(fake->context_sets.size(), 2u);
  EXPECT_EQ(fake->context_sets[0], surge_ctx);
  EXPECT_EQ(fake->context_sets[1], scheduled);
  // The surge distorts the truth (Level-3 shift), not the reporting path.
  EXPECT_GT(reported.response_ms, 10000.0);
  EXPECT_DOUBLE_EQ(reported.response_ms, env.true_history()[0].response_ms);
}

TEST(FaultyEnv, StateRestoreContinuesBitIdentically) {
  // A noiseless analytic inner env is a pure function of (config, context),
  // so FaultyEnvState fully determines the continuation.
  const auto ctx = env::table2_context(1);
  env::AnalyticEnvOptions pure;
  pure.noise_sigma = 0.0;
  pure.seed = 5;

  FaultyEnvOptions opt;
  opt.profile.drop_prob = 0.20;
  opt.profile.freeze_prob = 0.20;
  opt.profile.spike_prob = 0.10;
  opt.profile.reconfig_fail_prob = 0.20;
  opt.seed = 42;
  opt.timeout_sentinel = {-1.0, 0.0};

  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  const auto config_at = [&](int i) { return i % 2 == 0 ? a : b; };

  FaultyEnv uninterrupted(std::make_unique<env::AnalyticEnv>(ctx, pure), opt);
  std::vector<env::PerfSample> expected;
  for (int i = 0; i < 10; ++i) {
    expected.push_back(uninterrupted.measure(config_at(i)));
  }

  FaultyEnv first_half(std::make_unique<env::AnalyticEnv>(ctx, pure), opt);
  for (int i = 0; i < 6; ++i) first_half.measure(config_at(i));
  const FaultyEnvState saved = first_half.state();
  EXPECT_EQ(saved.interval, 6);

  FaultyEnv resumed(std::make_unique<env::AnalyticEnv>(ctx, pure), opt);
  resumed.restore(saved);
  EXPECT_EQ(resumed.interval(), 6);
  for (int i = 6; i < 10; ++i) {
    const env::PerfSample got = resumed.measure(config_at(i));
    EXPECT_EQ(got.response_ms, expected[static_cast<std::size_t>(i)].response_ms)
        << i;
    EXPECT_EQ(got.throughput_rps,
              expected[static_cast<std::size_t>(i)].throughput_rps)
        << i;
  }

  FaultyEnvState bad;
  bad.interval = -1;
  EXPECT_THROW(resumed.restore(bad), std::invalid_argument);
}

// The next measurement increments the interval. A saved INT_MAX used to
// load, and one interval later the writer saved "interval -2147483648",
// which this same reader rejects.
TEST(FaultyEnv, StateReaderRejectsAnIntervalAtIntMax) {
  const auto round_trip = [](int interval) {
    FaultyEnvState state;
    state.interval = interval;
    std::ostringstream os;
    save_faulty_env_state(os, state);
    std::istringstream is(os.str());
    return load_faulty_env_state(is).interval;
  };
  EXPECT_EQ(round_trip(std::numeric_limits<int>::max() - 1),
            std::numeric_limits<int>::max() - 1);
  EXPECT_THROW(round_trip(std::numeric_limits<int>::max()),
               std::runtime_error);
}

TEST(FaultyEnv, CountersAreRoutedToTheGivenRegistry) {
  obs::Registry registry;
  FaultyEnvOptions opt;
  opt.registry = &registry;
  opt.schedule.push_back(episode(FaultKind::kDrop, 1));
  opt.schedule.push_back(episode(FaultKind::kSpike, 2));
  opt.schedule.push_back(episode(FaultKind::kFreeze, 3));
  opt.schedule.push_back(episode(FaultKind::kReconfigFail, 4));
  opt.schedule.push_back(
      episode(FaultKind::kSurge, 5, 1, 0.0, env::table2_context(3)));
  FaultyEnv env(std::make_unique<FakeEnv>(), opt);
  for (int i = 0; i < 6; ++i) env.measure(Configuration::defaults());

  EXPECT_EQ(registry.counter("core.fault.intervals").value(), 6u);
  EXPECT_EQ(registry.counter("core.fault.drops").value(), 1u);
  EXPECT_EQ(registry.counter("core.fault.spikes").value(), 1u);
  EXPECT_EQ(registry.counter("core.fault.freezes").value(), 1u);
  EXPECT_EQ(registry.counter("core.fault.reconfig_failures").value(), 1u);
  EXPECT_EQ(registry.counter("core.fault.surges").value(), 1u);
}

TEST(FaultyEnv, KindNamesAndDecisionNotes) {
  EXPECT_EQ(fault_kind_name(FaultKind::kDrop), "drop");
  EXPECT_EQ(fault_kind_name(FaultKind::kSpike), "spike");
  EXPECT_EQ(fault_kind_name(FaultKind::kFreeze), "freeze");
  EXPECT_EQ(fault_kind_name(FaultKind::kReconfigFail), "reconfig-fail");
  EXPECT_EQ(fault_kind_name(FaultKind::kSurge), "surge");

  FaultDecision clean;
  EXPECT_FALSE(clean.any());
  EXPECT_EQ(clean.note(), "");
  FaultDecision multi;
  multi.drop = true;
  multi.spike = true;
  EXPECT_TRUE(multi.any());
  EXPECT_EQ(multi.note(), "drop+spike");
}

}  // namespace
}  // namespace rac::fault
