#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rac::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(2, 6));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 2);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(7.0);
  EXPECT_NEAR(sum / n, 7.0, 0.15);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalUnitHasMeanOne) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_unit(0.3);
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(29);
  const std::array<double, 3> weights = {1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.02);
}

TEST(Rng, CategoricalSingleBucket) {
  Rng rng(31);
  const std::array<double, 1> weights = {0.5};
  EXPECT_EQ(rng.categorical(weights), 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(37);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngState, RestoreContinuesTheExactStream) {
  Rng rng(41);
  for (int i = 0; i < 17; ++i) rng();
  const RngState mid = rng.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng());

  Rng resumed(999);  // arbitrary seed; restore overwrites it
  resumed.restore(mid);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(resumed(), expected[i]) << i;
}

TEST(RngState, BoxMullerCacheSurvivesRestore) {
  // normal() computes values in pairs; snapshotting between the two halves
  // must preserve the cached half or every later draw shifts.
  Rng rng(43);
  rng.normal();  // leaves the second half cached
  const RngState mid = rng.state();
  EXPECT_TRUE(mid.has_cached_normal);
  const double next = rng.normal();  // consumes the cache

  Rng resumed(1);
  resumed.restore(mid);
  EXPECT_EQ(resumed.normal(), next);
  // And the streams stay locked together past the cache.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(resumed.normal(), rng.normal());
}

TEST(RngState, RejectsAllZeroWords) {
  Rng rng(1);
  RngState dead;  // words all zero: the one state xoshiro cannot leave
  EXPECT_THROW(rng.restore(dead), std::invalid_argument);
  // Read from a file, the same words are malformed input.
  std::istringstream line("rng 0 0 0 0 0 0\n");
  EXPECT_THROW(read_rng_state(line, "rng"), std::runtime_error);
  std::istringstream live("rng 0 0 0 1 0 0\n");
  EXPECT_EQ(read_rng_state(live, "rng").words[3], 1u);
}

TEST(Rng, GeometricMeanIsOneOverP) {
  // Convention audit (the session-length off-by-one question): geometric(p)
  // counts bernoulli(p) trials up to AND INCLUDING the first success, so
  // the support starts at 1 and E[X] = 1/p exactly -- not the
  // failures-before-success convention whose mean is (1-p)/p.
  // SessionGenerator::draw_session_length therefore passes p = 1/mean
  // with no +1/-1 correction.
  Rng rng(77);
  for (const double p : {0.5, 0.2, 0.05}) {
    const int n = 200000;
    long long total = 0;
    int min_seen = 1 << 30;
    for (int i = 0; i < n; ++i) {
      const int draw = rng.geometric(p);
      total += draw;
      min_seen = std::min(min_seen, draw);
    }
    const double mean = static_cast<double>(total) / n;
    EXPECT_NEAR(mean, 1.0 / p, (1.0 / p) * 0.03) << "p = " << p;
    EXPECT_GE(min_seen, 1) << "p = " << p;
  }
}

TEST(Rng, GeometricWithCertainSuccessIsAlwaysOne) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 1);
}

TEST(SplitMix, KnownFirstOutputChangesState) {
  std::uint64_t state = 0;
  const auto first = splitmix64(state);
  EXPECT_NE(state, 0u);
  const auto second = splitmix64(state);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace rac::util
