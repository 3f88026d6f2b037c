// Dynamic-traffic layer: shape purity/determinism, parameter validation,
// blend identities, and the golden cross-thread target streams.
#include "workload/dynamic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"
#include "workload/session.hpp"

namespace rac::workload {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const TrafficTarget& a, const TrafficTarget& b) {
  EXPECT_EQ(bits(a.concurrency_scale), bits(b.concurrency_scale));
  EXPECT_EQ(bits(a.think_scale), bits(b.think_scale));
  for (std::size_t m = 0; m < kNumMixes; ++m) {
    EXPECT_EQ(bits(a.mix_weights[m]), bits(b.mix_weights[m])) << "mix " << m;
  }
  EXPECT_TRUE(same_target(a, b));
}

// ---- targets and blend helpers --------------------------------------------

TEST(TrafficTarget, OneHotIsUnitScalesWithAllWeightOnTheMix) {
  for (std::size_t m = 0; m < kNumMixes; ++m) {
    const TrafficTarget t = one_hot_target(kAllMixes[m]);
    EXPECT_EQ(t.concurrency_scale, 1.0);
    EXPECT_EQ(t.think_scale, 1.0);
    for (std::size_t j = 0; j < kNumMixes; ++j) {
      EXPECT_EQ(t.mix_weights[j], j == m ? 1.0 : 0.0);
    }
  }
}

TEST(TrafficTarget, ScaledPopulationRoundsToNearestAndKeepsOneBrowser) {
  TrafficTarget t = one_hot_target(MixType::kShopping);
  EXPECT_EQ(scaled_population(400, t), 400);
  EXPECT_EQ(scaled_population(1, t), 1);
  t.concurrency_scale = 1.25;  // 3.75
  EXPECT_EQ(scaled_population(3, t), 4);
  t.concurrency_scale = 0.5;  // 2.5 rounds away from zero
  EXPECT_EQ(scaled_population(5, t), 3);
  t.concurrency_scale = 1e-3;  // 0.4
  EXPECT_EQ(scaled_population(400, t), 1);
}

TEST(TrafficTarget, SameTargetComparesBitwise) {
  const TrafficTarget a = one_hot_target(MixType::kShopping);
  TrafficTarget b = a;
  EXPECT_TRUE(same_target(a, b));
  b.think_scale = 1.0000000000000002;  // one ulp off
  EXPECT_FALSE(same_target(a, b));
}

// The identity the one load path rests on: a static mix reaches both
// environments as its one-hot target, so every field either model reads
// must equal the plain mix's bit for bit.
TEST(TrafficBlend, OneHotBlendReproducesThePlainMixBitwise) {
  for (std::size_t m = 0; m < kNumMixes; ++m) {
    const MixType mix = kAllMixes[m];
    const TrafficTarget t = one_hot_target(mix);
    const MixStats plain = mix_stats(mix);
    const MixStats blended = blend_mix_stats(t.mix_weights);
    EXPECT_EQ(bits(plain.web_demand_ms), bits(blended.web_demand_ms));
    EXPECT_EQ(bits(plain.app_demand_ms), bits(blended.app_demand_ms));
    EXPECT_EQ(bits(plain.db_demand_ms), bits(blended.db_demand_ms));
    EXPECT_EQ(bits(plain.write_fraction), bits(blended.write_fraction));
    EXPECT_EQ(bits(plain.session_fraction), bits(blended.session_fraction));
    EXPECT_EQ(bits(plain.order_fraction), bits(blended.order_fraction));
    EXPECT_EQ(bits(plain.think_time_mean_s), bits(blended.think_time_mean_s));
    EXPECT_EQ(bits(plain.session_length_mean),
              bits(blended.session_length_mean));

    const BrowserProfile pp = browser_profile(mix);
    const BrowserProfile bp = blend_browser_profile(t.mix_weights, 1.0);
    EXPECT_EQ(bits(pp.think_time_mean_s), bits(bp.think_time_mean_s));
    EXPECT_EQ(bits(pp.session_length_mean), bits(bp.session_length_mean));
    EXPECT_EQ(bits(pp.inter_session_gap_s), bits(bp.inter_session_gap_s));
    EXPECT_EQ(bits(pp.pause_prob), bits(bp.pause_prob));
    EXPECT_EQ(bits(pp.pause_mean_s), bits(bp.pause_mean_s));
  }
}

TEST(TrafficBlend, ThinkScaleMultipliesOnlyThinkAndPauseMeans) {
  const TrafficTarget t = one_hot_target(MixType::kOrdering);
  const BrowserProfile base = blend_browser_profile(t.mix_weights, 1.0);
  const BrowserProfile scaled = blend_browser_profile(t.mix_weights, 2.0);
  EXPECT_DOUBLE_EQ(scaled.think_time_mean_s, 2.0 * base.think_time_mean_s);
  EXPECT_DOUBLE_EQ(scaled.pause_mean_s, 2.0 * base.pause_mean_s);
  EXPECT_EQ(bits(scaled.session_length_mean), bits(base.session_length_mean));
}

TEST(TrafficBlend, RejectsZeroMassAndNegativeWeights) {
  EXPECT_THROW(blend_mix_stats({0.0, 0.0, 0.0}), util::ContractViolation);
  EXPECT_THROW(blend_mix_stats({1.0, -0.5, 0.0}), util::ContractViolation);
  EXPECT_THROW(blend_browser_profile({1.0, 0.0, 0.0}, 0.0),
               util::ContractViolation);
}

// ---- shapes ---------------------------------------------------------------

TEST(DiurnalShape, OscillatesAroundUnityWithinAmplitude) {
  DiurnalParams p;
  p.period_intervals = 24.0;
  p.amplitude = 0.3;
  const DiurnalShape shape(p);
  double lo = 10.0;
  double hi = 0.0;
  for (std::int64_t i = 0; i < 24; ++i) {
    TrafficTarget t = one_hot_target(MixType::kShopping);
    shape.apply(i, t);
    lo = std::min(lo, t.concurrency_scale);
    hi = std::max(hi, t.concurrency_scale);
    EXPECT_GE(t.concurrency_scale, 1.0 - p.amplitude - 1e-12);
    EXPECT_LE(t.concurrency_scale, 1.0 + p.amplitude + 1e-12);
  }
  EXPECT_LT(lo, 0.8);  // the trough and crest are actually reached
  EXPECT_GT(hi, 1.2);
}

TEST(DiurnalShape, RejectsBadParams) {
  EXPECT_THROW(DiurnalShape({0.0, 0.4, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiurnalShape({96.0, 1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiurnalShape({96.0, -0.1, 0.0}), std::invalid_argument);
  // Non-finite parameters would reach sin() and poison every target.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DiurnalShape({kInf, 0.2, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiurnalShape({96.0, 0.2, kNan}), std::invalid_argument);
  EXPECT_THROW(DiurnalShape({96.0, 0.2, kInf}), std::invalid_argument);
}

TEST(FlashCrowdShape, EnvelopeRampsHoldsAndDecays) {
  FlashCrowdParams p;
  p.onset_prob = 0.0;  // no stochastic onsets; drive the envelope directly
  p.ramp_intervals = 2;
  p.hold_intervals = 3;
  p.decay_intervals = 4;
  p.peak_scale = 3.0;
  EXPECT_EQ(flash_crowd_duration(p), 9);

  // Scan a seed whose interval-0 onset draw fires so the envelope is
  // observable through flash_scale_at.
  // A low onset probability makes an isolated interval-0 onset (no second
  // onset in 1..9) common enough that the scan always finds one.
  FlashCrowdParams armed = p;
  armed.onset_prob = 0.05;
  std::uint64_t seed = 0;
  for (; seed < 10000; ++seed) {
    armed.seed = seed;
    bool isolated = flash_onset_at(armed, 0);
    for (std::int64_t i = 1; i <= 9 && isolated; ++i) {
      isolated = !flash_onset_at(armed, i);
    }
    if (isolated) break;
  }
  ASSERT_LT(seed, 10000u) << "no isolating seed found";

  std::vector<double> envelope;
  for (std::int64_t i = 0; i < 10; ++i) {
    envelope.push_back(flash_scale_at(armed, i));
  }
  // Ramp strictly rises toward the peak...
  EXPECT_GT(envelope[0], 1.0);
  EXPECT_GT(envelope[1], envelope[0]);
  EXPECT_LT(envelope[1], p.peak_scale);
  // ...the hold sits at the peak...
  EXPECT_DOUBLE_EQ(envelope[2], p.peak_scale);
  EXPECT_DOUBLE_EQ(envelope[3], p.peak_scale);
  EXPECT_DOUBLE_EQ(envelope[4], p.peak_scale);
  // ...and the decay falls back to baseline.
  EXPECT_LT(envelope[5], p.peak_scale);
  EXPECT_GT(envelope[5], envelope[6]);
  EXPECT_GT(envelope[8], 1.0);
  EXPECT_DOUBLE_EQ(envelope[9], 1.0);  // past the crowd
}

TEST(FlashCrowdShape, OnsetDecisionsArePureAndSeedDependent) {
  FlashCrowdParams p;
  p.onset_prob = 0.3;
  p.seed = 42;
  std::vector<bool> first;
  for (std::int64_t i = 0; i < 64; ++i) first.push_back(flash_onset_at(p, i));
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(flash_onset_at(p, i), first[static_cast<std::size_t>(i)]);
  }
  p.seed = 43;
  std::vector<bool> other;
  for (std::int64_t i = 0; i < 64; ++i) other.push_back(flash_onset_at(p, i));
  EXPECT_NE(first, other);
}

TEST(FlashCrowdShape, RejectsBadParams) {
  FlashCrowdParams p;
  p.onset_prob = 1.5;
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  p = {};
  p.ramp_intervals = 0;
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  p = {};
  p.hold_intervals = -1;
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  p = {};
  p.decay_intervals = 0;
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  p = {};
  p.peak_scale = 1.0;
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  p = {};
  p.peak_scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  // ramp + hold + decay would overflow int in flash_crowd_duration.
  p = {};
  p.ramp_intervals = std::numeric_limits<int>::max();
  p.hold_intervals = std::numeric_limits<int>::max();
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  // Long without overflowing: every interval would scan that many onsets.
  p = {};
  p.ramp_intervals = static_cast<int>(kMaxFlashCrowdIntervals);
  p.hold_intervals = 0;
  p.decay_intervals = 1;
  EXPECT_THROW(FlashCrowdShape{p}, std::invalid_argument);
  p.ramp_intervals -= 1;
  EXPECT_NO_THROW(FlashCrowdShape{p});
  EXPECT_EQ(flash_crowd_duration(p), kMaxFlashCrowdIntervals);
}

TEST(MixDriftShape, EndpointsAreBitwiseOneHot) {
  MixDriftParams p;
  p.from = MixType::kShopping;
  p.to = MixType::kOrdering;
  p.start_interval = 10;
  p.duration_intervals = 4;
  const MixDriftShape shape(p);

  TrafficTarget before = one_hot_target(MixType::kBrowsing);
  shape.apply(0, before);
  expect_same(before, one_hot_target(MixType::kShopping));

  TrafficTarget at_start = one_hot_target(MixType::kBrowsing);
  shape.apply(10, at_start);
  expect_same(at_start, one_hot_target(MixType::kShopping));

  TrafficTarget after = one_hot_target(MixType::kBrowsing);
  shape.apply(14, after);
  expect_same(after, one_hot_target(MixType::kOrdering));

  TrafficTarget mid = one_hot_target(MixType::kBrowsing);
  shape.apply(12, mid);
  EXPECT_DOUBLE_EQ(mid.mix_weights[static_cast<std::size_t>(MixType::kBrowsing)],
                   0.0);
  EXPECT_DOUBLE_EQ(mid.mix_weights[static_cast<std::size_t>(MixType::kShopping)],
                   0.5);
  EXPECT_DOUBLE_EQ(mid.mix_weights[static_cast<std::size_t>(MixType::kOrdering)],
                   0.5);
}

TEST(MixDriftShape, RejectsBadParams) {
  MixDriftParams p;
  p.start_interval = -1;
  EXPECT_THROW(MixDriftShape{p}, std::invalid_argument);
  p = {};
  p.duration_intervals = 0;
  EXPECT_THROW(MixDriftShape{p}, std::invalid_argument);
}

TEST(ThinkNoiseShape, ModulatesThinkScaleDeterministically) {
  ThinkNoiseParams p;
  p.seed = 9;
  p.sigma = 0.5;
  const ThinkNoiseShape shape(p);
  TrafficTarget a = one_hot_target(MixType::kShopping);
  TrafficTarget b = one_hot_target(MixType::kShopping);
  shape.apply(17, a);
  shape.apply(17, b);
  EXPECT_EQ(bits(a.think_scale), bits(b.think_scale));
  EXPECT_GT(a.think_scale, 0.0);
  EXPECT_NE(a.think_scale, 1.0);

  // sigma = 0 is the identity.
  const ThinkNoiseShape off({p.seed, 0.0});
  TrafficTarget c = one_hot_target(MixType::kShopping);
  off.apply(17, c);
  EXPECT_EQ(c.think_scale, 1.0);

  ThinkNoiseParams bad;
  bad.sigma = -0.1;
  EXPECT_THROW(ThinkNoiseShape{bad}, std::invalid_argument);
}

// ---- the model ------------------------------------------------------------

TrafficModel day_model() {
  TrafficModel model;
  model.add_diurnal({96.0, 0.4, 3.0})
      .add_flash_crowd({7, 0.02, 2, 4, 6, 2.5})
      .add_mix_drift({MixType::kShopping, MixType::kOrdering, 30, 20})
      .add_think_noise({11, 0.25});
  return model;
}

TEST(TrafficModel, EmptyModelEmitsTheOneHotIdentity) {
  const TrafficModel model;
  EXPECT_TRUE(model.empty());
  for (const MixType mix : kAllMixes) {
    expect_same(model.target_at(5, mix), one_hot_target(mix));
  }
}

TEST(TrafficModel, TargetAtIsPure) {
  const TrafficModel model = day_model();
  for (std::int64_t i : {0, 1, 17, 95, 1000}) {
    expect_same(model.target_at(i, MixType::kShopping),
                model.target_at(i, MixType::kShopping));
  }
  EXPECT_THROW(model.target_at(-1, MixType::kShopping),
               util::ContractViolation);
}

TEST(TrafficModel, TargetStreamIsBitwiseIdenticalAcrossThreadCounts) {
  const TrafficModel model = day_model();
  constexpr std::int64_t kIntervals = 96;
  std::vector<TrafficTarget> serial;
  for (std::int64_t i = 0; i < kIntervals; ++i) {
    serial.push_back(model.target_at(i, MixType::kShopping));
  }
  util::ThreadPool pool(4);
  std::vector<TrafficTarget> parallel(kIntervals);
  pool.parallel_for(kIntervals, [&](std::size_t i) {
    parallel[i] = model.target_at(static_cast<std::int64_t>(i),
                                  MixType::kShopping);
  });
  for (std::int64_t i = 0; i < kIntervals; ++i) {
    expect_same(serial[static_cast<std::size_t>(i)],
                parallel[static_cast<std::size_t>(i)]);
  }
}

// ---- session-generator streams under the layer ----------------------------

TEST(SessionGenerator, StateRoundTripContinuesTheStreamBitwise) {
  SessionGenerator gen(MixType::kShopping, util::Rng(11), 1.25);
  for (int i = 0; i < 137; ++i) gen.next();
  const SessionState mid = gen.state();

  SessionGenerator resumed(MixType::kShopping, util::Rng(999), 1.25);
  resumed.restore(mid);
  for (int i = 0; i < 500; ++i) {
    const BrowserStep a = gen.next();
    const BrowserStep b = resumed.next();
    EXPECT_EQ(a.interaction, b.interaction);
    EXPECT_EQ(bits(a.think_time_s), bits(b.think_time_s));
    EXPECT_EQ(a.new_session, b.new_session);
  }
  EXPECT_EQ(gen.steps_generated(), resumed.steps_generated());
  EXPECT_EQ(gen.sessions_started(), resumed.sessions_started());
}

}  // namespace
}  // namespace rac::workload
