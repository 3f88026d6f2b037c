#include "workload/session.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "util/contracts.hpp"

namespace rac::workload {
namespace {

TEST(SessionGenerator, FirstStepStartsSession) {
  SessionGenerator gen(MixType::kShopping, util::Rng(1));
  const auto step = gen.next();
  EXPECT_TRUE(step.new_session);
  EXPECT_GE(step.think_time_s, 0.0);
  EXPECT_EQ(gen.sessions_started(), 1u);
}

TEST(SessionGenerator, SessionLengthMatchesProfileMean) {
  SessionGenerator gen(MixType::kOrdering, util::Rng(2));
  const int steps = 200000;
  int sessions = 0;
  for (int i = 0; i < steps; ++i) {
    if (gen.next().new_session) ++sessions;
  }
  const double mean_len = static_cast<double>(steps) / sessions;
  EXPECT_NEAR(mean_len, browser_profile(MixType::kOrdering).session_length_mean,
              0.5);
}

TEST(SessionGenerator, ThinkTimesMatchEffectiveMean) {
  SessionGenerator gen(MixType::kShopping, util::Rng(3));
  double total = 0.0;
  int count = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto step = gen.next();
    if (!step.new_session) {  // in-session gaps only
      total += step.think_time_s;
      ++count;
    }
  }
  const double expected =
      browser_profile(MixType::kShopping).effective_think_mean_s();
  EXPECT_NEAR(total / count, expected, expected * 0.05);
}

TEST(SessionGenerator, InteractionFrequenciesMatchMix) {
  SessionGenerator gen(MixType::kBrowsing, util::Rng(4));
  std::array<int, kNumInteractions> counts{};
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(gen.next().interaction)];
  }
  const auto freq = mix_frequencies(MixType::kBrowsing);
  for (std::size_t i = 0; i < kNumInteractions; ++i) {
    // CBMG navigation keeps the long-run frequencies near (not exactly at)
    // the spec percentages; 0.03 absolute matches the stationary bound
    // asserted in cbmg_test.
    EXPECT_NEAR(counts[i] / static_cast<double>(n), freq[i], 0.03)
        << interaction_name(static_cast<Interaction>(i));
  }
}

TEST(SessionGenerator, DeterministicGivenSeed) {
  SessionGenerator a(MixType::kShopping, util::Rng(77));
  SessionGenerator b(MixType::kShopping, util::Rng(77));
  for (int i = 0; i < 1000; ++i) {
    const auto sa = a.next();
    const auto sb = b.next();
    EXPECT_EQ(sa.interaction, sb.interaction);
    EXPECT_DOUBLE_EQ(sa.think_time_s, sb.think_time_s);
    EXPECT_EQ(sa.new_session, sb.new_session);
  }
}

TEST(SessionGenerator, CountsSteps) {
  SessionGenerator gen(MixType::kOrdering, util::Rng(5));
  for (int i = 0; i < 10; ++i) gen.next();
  EXPECT_EQ(gen.steps_generated(), 10u);
}

TEST(SessionGenerator, UnitThinkScaleReproducesTheUnscaledStreamBitwise) {
  SessionGenerator plain(MixType::kShopping, util::Rng(21));
  SessionGenerator scaled(MixType::kShopping, util::Rng(21), 1.0);
  for (int i = 0; i < 2000; ++i) {
    const auto a = plain.next();
    const auto b = scaled.next();
    EXPECT_EQ(a.interaction, b.interaction);
    EXPECT_DOUBLE_EQ(a.think_time_s, b.think_time_s);
    EXPECT_EQ(a.new_session, b.new_session);
  }
}

TEST(SessionGenerator, ThinkScaleStretchesInSessionThinkTimes) {
  SessionGenerator gen(MixType::kShopping, util::Rng(22), 3.0);
  double total = 0.0;
  int count = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto step = gen.next();
    if (!step.new_session) {
      total += step.think_time_s;
      ++count;
    }
  }
  const auto profile = browser_profile(MixType::kShopping);
  const double expected =
      3.0 * profile.think_time_mean_s +
      profile.pause_prob * 3.0 * profile.pause_mean_s;
  EXPECT_NEAR(total / count, expected, expected * 0.05);
}

TEST(SessionGenerator, RejectsNonPositiveThinkScale) {
  EXPECT_THROW(SessionGenerator(MixType::kShopping, util::Rng(1), 0.0),
               util::ContractViolation);
}

TEST(SessionGenerator, RestoreRejectsCorruptState) {
  SessionGenerator gen(MixType::kShopping, util::Rng(23));
  for (int i = 0; i < 10; ++i) gen.next();
  SessionState bad = gen.state();
  bad.remaining_in_session = -1;
  EXPECT_THROW(gen.restore(bad), std::invalid_argument);
  bad = gen.state();
  bad.last_interaction = 999;
  EXPECT_THROW(gen.restore(bad), std::invalid_argument);
}

TEST(SessionGenerator, FirstArrivalStaggeredWithinThinkTime) {
  // The very first think time is uniform in [0, think mean): prevents a
  // synchronized thundering herd at simulation start.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    SessionGenerator gen(MixType::kShopping, util::Rng(seed));
    const auto step = gen.next();
    EXPECT_LT(step.think_time_s,
              browser_profile(MixType::kShopping).think_time_mean_s);
  }
}

}  // namespace
}  // namespace rac::workload
