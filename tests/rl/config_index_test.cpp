#include "rl/config_index.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "config/space.hpp"
#include "util/rng.hpp"

namespace rac::rl {
namespace {

using config::Configuration;
using config::ParamId;

TEST(ConfigIndex, PositionsFollowInsertionOrder) {
  ConfigIndex index;
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 300);
  EXPECT_EQ(index.size(), 0U);
  EXPECT_EQ(index.find(a), ConfigIndex::npos);
  EXPECT_EQ(index.insert(b), std::make_pair(std::size_t{0}, true));
  EXPECT_EQ(index.insert(a), std::make_pair(std::size_t{1}, true));
  EXPECT_EQ(index.insert(b), std::make_pair(std::size_t{0}, false));
  EXPECT_EQ(index.find(a), 1U);
  EXPECT_EQ(index.size(), 2U);
  EXPECT_EQ(index[0], b);
  EXPECT_EQ(index.keys().back(), a);
  index.clear();
  EXPECT_EQ(index.size(), 0U);
  EXPECT_EQ(index.find(b), ConfigIndex::npos);
}

// Well past the initial probe table, every configuration keeps its
// position through each growth.
TEST(ConfigIndex, PositionsSurviveProbeTableGrowth) {
  ConfigIndex index;
  util::Rng rng(8);
  std::vector<Configuration> distinct;
  for (int i = 0; i < 3000; ++i) {
    const Configuration c = config::ConfigSpace::random_fine(rng);
    const auto [position, inserted] = index.insert(c);
    if (inserted) {
      ASSERT_EQ(position, distinct.size());
      distinct.push_back(c);
    }
  }
  ASSERT_EQ(index.size(), distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    ASSERT_EQ(index.find(distinct[i]), i);
    ASSERT_EQ(index[i], distinct[i]);
  }
}

}  // namespace
}  // namespace rac::rl
