#include "rl/experience.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "config/space.hpp"
#include "util/rng.hpp"

#include "util/contracts.hpp"

namespace rac::rl {
namespace {

using config::Configuration;
using config::ParamId;

TEST(ExperienceStore, EmptyLookupIsNullopt) {
  const ExperienceStore store;
  EXPECT_FALSE(store.response_ms(Configuration{}).has_value());
  EXPECT_TRUE(store.empty());
}

TEST(ExperienceStore, FirstRecordStoresExactValue) {
  ExperienceStore store(0.5);
  const Configuration c;
  store.record(c, 250.0);
  ASSERT_TRUE(store.response_ms(c).has_value());
  EXPECT_DOUBLE_EQ(*store.response_ms(c), 250.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ExperienceStore, RepeatRecordsBlendWithEwma) {
  ExperienceStore store(0.5);
  const Configuration c;
  store.record(c, 100.0);
  store.record(c, 200.0);
  EXPECT_DOUBLE_EQ(*store.response_ms(c), 150.0);
  store.record(c, 150.0);
  EXPECT_DOUBLE_EQ(*store.response_ms(c), 150.0);
}

TEST(ExperienceStore, BlendOneKeepsLatest) {
  ExperienceStore store(1.0);
  const Configuration c;
  store.record(c, 100.0);
  store.record(c, 300.0);
  EXPECT_DOUBLE_EQ(*store.response_ms(c), 300.0);
}

TEST(ExperienceStore, DistinctConfigurationsTrackedSeparately) {
  ExperienceStore store;
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  store.record(a, 100.0);
  store.record(b, 900.0);
  EXPECT_DOUBLE_EQ(*store.response_ms(a), 100.0);
  EXPECT_DOUBLE_EQ(*store.response_ms(b), 900.0);
  EXPECT_EQ(store.entries().size(), 2u);
}

TEST(ExperienceStore, ClearForgetsEverything) {
  ExperienceStore store;
  store.record(Configuration{}, 1.0);
  store.clear();
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.response_ms(Configuration{}).has_value());
}

TEST(ExperienceStore, RejectsBadBlend) {
  EXPECT_THROW(ExperienceStore(0.0), std::invalid_argument);
  EXPECT_THROW(ExperienceStore(1.5), std::invalid_argument);
}

// Regression for the contract migration: recording a NaN, infinite, or
// negative response would corrupt every future blend for that
// configuration. The RAC_EXPECT precondition fires in every build.
TEST(ExperienceStore, RejectsNonFiniteOrNegativeResponse) {
  ExperienceStore store;
  EXPECT_THROW(
      store.record(Configuration{},
                   std::numeric_limits<double>::quiet_NaN()),
      util::ContractViolation);
  EXPECT_THROW(store.record(Configuration{},
                            std::numeric_limits<double>::infinity()),
               util::ContractViolation);
  EXPECT_THROW(store.record(Configuration{}, -1.0),
               util::ContractViolation);
  EXPECT_TRUE(store.empty());
}

TEST(ExperienceStore, EntriesKeepFirstObservationOrder) {
  ExperienceStore store(0.5);
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  Configuration c;
  c.set(ParamId::kMaxClients, 250);
  store.record(b, 1.0);
  store.record(a, 2.0);
  store.record(c, 3.0);
  store.record(b, 5.0);  // repeat must not move b to the back

  const auto entries = store.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].configuration, b);
  EXPECT_EQ(entries[1].configuration, a);
  EXPECT_EQ(entries[2].configuration, c);
  EXPECT_EQ(entries[0].observation.count, 2u);
  EXPECT_DOUBLE_EQ(entries[0].observation.response_ms, 3.0);
}

// best() backs the safe-fallback degradation path (PR 5): after repeated
// SLA blowouts the agent reverts to the best configuration it has ever
// measured, so the answer must be deterministic and blend-aware.
TEST(ExperienceStore, BestReturnsLowestBlendedResponse) {
  ExperienceStore store(0.5);
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  Configuration c;
  c.set(ParamId::kMaxClients, 250);
  store.record(a, 300.0);
  store.record(b, 100.0);
  store.record(c, 200.0);
  ASSERT_TRUE(store.best().has_value());
  EXPECT_EQ(*store.best(), b);
  // The winner tracks the BLENDED value: two bad samples drag b behind c.
  store.record(b, 700.0);  // blend -> 400
  EXPECT_EQ(*store.best(), c);
}

TEST(ExperienceStore, BestKeepsEarliestObservationOnTies) {
  ExperienceStore store;
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  store.record(b, 150.0);
  store.record(a, 150.0);
  EXPECT_EQ(*store.best(), b);  // first recorded wins the tie
}

TEST(ExperienceStore, BestOnEmptyStoreIsNullopt) {
  const ExperienceStore store;
  EXPECT_FALSE(store.best().has_value());
}

TEST(ExperienceStore, RestoreRoundTripsEntriesAndBlending) {
  ExperienceStore original(0.5);
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 400);
  original.record(a, 100.0);
  original.record(b, 300.0);
  original.record(a, 200.0);

  ExperienceStore resumed(0.5);
  resumed.restore({original.entries().begin(), original.entries().end()});
  EXPECT_EQ(resumed.size(), original.size());
  ASSERT_EQ(resumed.entries().size(), original.entries().size());
  for (std::size_t i = 0; i < original.entries().size(); ++i) {
    EXPECT_EQ(resumed.entries()[i].configuration,
              original.entries()[i].configuration);
  }
  EXPECT_DOUBLE_EQ(*resumed.response_ms(a), *original.response_ms(a));
  // Later blends continue identically (count and value both restored).
  original.record(a, 400.0);
  resumed.record(a, 400.0);
  EXPECT_DOUBLE_EQ(*resumed.response_ms(a), *original.response_ms(a));
}

TEST(ExperienceStore, RestoreRejectsCorruptEntries) {
  ExperienceStore store;
  Configuration a;
  ExperienceEntry good{a, {100.0, 1}};
  // Duplicate configuration.
  EXPECT_THROW(store.restore({good, good}), std::invalid_argument);
  // Zero observation count, and one the next record would wrap to zero.
  ExperienceEntry zero_count{a, {100.0, 0}};
  EXPECT_THROW(store.restore({zero_count}), std::invalid_argument);
  ExperienceEntry max_count{
      a, {100.0, std::numeric_limits<std::uint64_t>::max()}};
  EXPECT_THROW(store.restore({max_count}), std::invalid_argument);
  // Non-finite / negative blended response.
  ExperienceEntry nan_entry{
      a, {std::numeric_limits<double>::quiet_NaN(), 1}};
  EXPECT_THROW(store.restore({nan_entry}), std::invalid_argument);
  ExperienceEntry negative{a, {-5.0, 1}};
  EXPECT_THROW(store.restore({negative}), std::invalid_argument);
  // A failed restore leaves the store usable.
  store.restore({good});
  EXPECT_EQ(store.size(), 1u);
}


TEST(ExperienceStore, SortedConfigurationsMatchSortedCopy) {
  // The canonical list is maintained incrementally on insert; it must be
  // exactly what sorting the entries' configurations by values() would
  // produce, both after organic recording and after a restore round trip.
  ExperienceStore store;
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    store.record(config::ConfigSpace::random_fine(rng),
                 rng.uniform(10.0, 500.0));
  }
  std::vector<config::Configuration> expected;
  for (const auto& entry : store.entries()) {
    expected.push_back(entry.configuration);
  }
  std::sort(expected.begin(), expected.end(),
            [](const config::Configuration& a, const config::Configuration& b) {
              return a.values() < b.values();
            });
  const auto sorted = store.sorted_configurations();
  ASSERT_EQ(sorted.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sorted[i], expected[i]) << i;
  }

  ExperienceStore restored;
  restored.restore({store.entries().begin(), store.entries().end()});
  const auto resorted = restored.sorted_configurations();
  ASSERT_EQ(resorted.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resorted[i], expected[i]) << i;
  }
}

}  // namespace
}  // namespace rac::rl
