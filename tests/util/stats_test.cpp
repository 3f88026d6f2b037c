#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace rac::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i - 3.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Ewma, FirstValueInitializes) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesTowardConstant) {
  Ewma e(0.5);
  e.add(0.0);
  for (int i = 0; i < 30; ++i) e.add(8.0);
  EXPECT_NEAR(e.value(), 8.0, 1e-6);
}

TEST(Ewma, WeightsNewestSample) {
  Ewma e(0.25);
  e.add(0.0);
  e.add(4.0);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

TEST(SlidingWindow, EvictsOldest) {
  SlidingWindow w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10.0);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 10.0);
  EXPECT_DOUBLE_EQ(w.back(), 10.0);
}

TEST(Ewma, RejectsAlphaOutsideUnitInterval) {
  EXPECT_THROW(Ewma{0.0}, std::invalid_argument);
  EXPECT_THROW(Ewma{-0.1}, std::invalid_argument);
  EXPECT_THROW(Ewma{1.5}, std::invalid_argument);
  EXPECT_NO_THROW(Ewma{1.0});  // alpha == 1 means "track the last sample"
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow{0}, std::invalid_argument);
}

TEST(SlidingWindow, ResetClears) {
  SlidingWindow w(2);
  w.add(5.0);
  w.reset();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(Percentile, MedianAndExtremes) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 95.0), 9.5);
}

TEST(Percentile, SingleSample) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(v, 100.5), std::invalid_argument);
}

// The sort-based percentile that percentile() replaced.
double sorted_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

// percentile() selects its two order statistics instead of sorting; it
// must return the sort-based reference's value bit for bit, ties, signed
// zeros and subnormals included.
TEST(Percentile, SelectionMatchesTheSortBasedReferenceBitForBit) {
  using limits = std::numeric_limits<double>;
  const std::vector<double> awkward = {
      0.0,  -0.0, limits::denorm_min(), -limits::denorm_min(),
      limits::min() / 7.0, 1.0, 1.0, -2.5, 1e300, -1e300};
  Rng rng(91);
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      // Draws repeat: a small value pool, awkward values, and a few
      // continuous samples.
      switch (rng.uniform_int(0, 2)) {
        case 0:
          samples.push_back(awkward[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(awkward.size()) - 1))]);
          break;
        case 1:
          samples.push_back(static_cast<double>(rng.uniform_int(-3, 3)));
          break;
        default:
          samples.push_back(rng.normal(0.0, 100.0));
          break;
      }
    }
    for (const double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " p " << p);
      const double got = percentile(samples, p);
      const double want = sorted_percentile(samples, p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << got << " vs " << want;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 2400);
}

TEST(MeanOf, HandlesEmptyAndValues) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  const std::vector<double> v = {1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 3.0);
}

TEST(Ewma, RestoreResumesTheAverage) {
  Ewma original(0.25);
  original.add(100.0);
  original.add(200.0);

  Ewma resumed(0.25);
  resumed.restore(original.value(), !original.empty());
  EXPECT_FALSE(resumed.empty());
  EXPECT_DOUBLE_EQ(resumed.value(), original.value());
  original.add(50.0);
  resumed.add(50.0);
  EXPECT_DOUBLE_EQ(resumed.value(), original.value());
}

TEST(Ewma, RestoreUninitializedIgnoresValue) {
  Ewma e(0.5);
  e.add(10.0);
  e.restore(999.0, false);
  EXPECT_TRUE(e.empty());
  e.add(3.0);
  EXPECT_DOUBLE_EQ(e.value(), 3.0);  // first sample, not blended with 999
}

TEST(Ewma, RestoreRejectsNonFiniteInitializedValue) {
  Ewma e(0.5);
  EXPECT_THROW(e.restore(std::numeric_limits<double>::quiet_NaN(), true),
               std::invalid_argument);
  // Non-finite is fine when the state says "no samples yet".
  e.restore(std::numeric_limits<double>::quiet_NaN(), false);
  EXPECT_TRUE(e.empty());
}

TEST(SlidingWindow, ValuesAreOldestFirstAndRestoreRoundTrips) {
  SlidingWindow original(3);
  for (double x : {1.0, 2.0, 3.0, 4.0}) original.add(x);  // 1.0 evicted
  EXPECT_EQ(original.values(), (std::vector<double>{2.0, 3.0, 4.0}));

  SlidingWindow resumed(3);
  resumed.restore(original.values());
  EXPECT_EQ(resumed.values(), original.values());
  EXPECT_DOUBLE_EQ(resumed.mean(), original.mean());
  // Eviction order must continue identically.
  original.add(5.0);
  resumed.add(5.0);
  EXPECT_EQ(resumed.values(), original.values());
}

TEST(SlidingWindow, RestoreRejectsOversizedHistory) {
  SlidingWindow w(2);
  const std::vector<double> three = {1.0, 2.0, 3.0};
  EXPECT_THROW(w.restore(three), std::invalid_argument);
}

// Regression (PR 5): a single non-finite sample used to poison the Ewma
// value / window mean forever -- and the corrupt state would then survive
// a checkpoint/restore round trip.
TEST(Ewma, AddRejectsNonFiniteSamples) {
  Ewma e(0.5);
  e.add(10.0);
  EXPECT_THROW(e.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(e.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(e.add(-std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // The running average is untouched by the rejected samples.
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(SlidingWindow, AddRejectsNonFiniteSamples) {
  SlidingWindow w(3);
  w.add(5.0);
  EXPECT_THROW(w.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(w.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

TEST(SlidingWindow, RestoreRejectsNonFiniteSamples) {
  SlidingWindow w(3);
  w.add(1.0);
  const std::vector<double> poisoned = {
      2.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(w.restore(poisoned), std::invalid_argument);
  // Failed restore leaves the window unchanged.
  EXPECT_EQ(w.values(), (std::vector<double>{1.0}));
}

TEST(RSquared, PerfectFitIsOne) {
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
}

TEST(RSquared, MeanPredictorIsZero) {
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const std::vector<double> p = {2.0, 2.0, 2.0};
  EXPECT_NEAR(r_squared(y, p), 0.0, 1e-12);
}

TEST(RSquared, RejectsMismatchedOrEmptyInputs) {
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<double> p = {1.0};
  EXPECT_THROW(r_squared(y, p), std::invalid_argument);
  EXPECT_THROW(r_squared({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rac::util
