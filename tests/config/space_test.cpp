#include "config/space.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace rac::config {
namespace {

TEST(Action, EncodingRoundTrip) {
  EXPECT_TRUE(Action::keep().is_keep());
  EXPECT_EQ(Action::keep().direction(), 0);
  for (ParamId p : kAllParams) {
    const Action inc = Action::increase(p);
    const Action dec = Action::decrease(p);
    EXPECT_FALSE(inc.is_keep());
    EXPECT_EQ(inc.param(), p);
    EXPECT_EQ(inc.direction(), +1);
    EXPECT_EQ(dec.param(), p);
    EXPECT_EQ(dec.direction(), -1);
    EXPECT_NE(inc.id(), dec.id());
  }
}

TEST(Action, AllIdsDistinct) {
  std::set<int> ids;
  for (const Action a : ConfigSpace::all_actions()) ids.insert(a.id());
  EXPECT_EQ(ids.size(), kNumActions);
  EXPECT_EQ(kNumActions, 2 * kNumParams + 1);
}

TEST(Action, ToStringNamesParameter) {
  EXPECT_EQ(Action::keep().to_string(), "keep");
  EXPECT_EQ(Action::increase(ParamId::kMaxClients).to_string(),
            "inc MaxClients");
  EXPECT_EQ(Action::decrease(ParamId::kSessionTimeout).to_string(),
            "dec Session timeout");
}

TEST(ConfigSpace, ApplyMovesOneFineStep) {
  const Configuration c;
  const auto next = ConfigSpace::apply(c, Action::increase(ParamId::kMaxClients));
  EXPECT_EQ(next.value(ParamId::kMaxClients), 175);
  // All other parameters untouched.
  for (ParamId id : kAllParams) {
    if (id != ParamId::kMaxClients) {
      EXPECT_EQ(next.value(id), c.value(id));
    }
  }
}

TEST(ConfigSpace, ApplyKeepIsIdentity) {
  const Configuration c;
  EXPECT_EQ(ConfigSpace::apply(c, Action::keep()), c);
}

TEST(ConfigSpace, ChangesDetectsBoundaryClamp) {
  Configuration c;
  c.set(ParamId::kKeepAliveTimeout, 21);
  EXPECT_FALSE(
      ConfigSpace::changes(c, Action::increase(ParamId::kKeepAliveTimeout)));
  EXPECT_TRUE(
      ConfigSpace::changes(c, Action::decrease(ParamId::kKeepAliveTimeout)));
  EXPECT_FALSE(ConfigSpace::changes(c, Action::keep()));
}

TEST(ConfigSpace, NeighborsIncludeSelfAndDistinctStates) {
  Configuration c;
  for (ParamId id : kAllParams) c.set_normalized(id, 0.5);  // interior point
  const auto neighbors = ConfigSpace::neighbors(c);
  // Interior point: keep + 2 moves per parameter.
  EXPECT_EQ(neighbors.size(), 1 + 2 * kNumParams);
  std::set<std::size_t> hashes;
  for (const auto& n : neighbors) hashes.insert(n.hash());
  EXPECT_EQ(hashes.size(), neighbors.size());
}

TEST(ConfigSpace, NeighborsShrinkAtCorner) {
  Configuration c;
  for (ParamId id : kAllParams) c.set_normalized(id, 0.0);
  const auto neighbors = ConfigSpace::neighbors(c);
  // Only increases are possible.
  EXPECT_EQ(neighbors.size(), 1 + kNumParams);
}

TEST(ConfigSpace, FineGridCoversRange) {
  const auto grid = ConfigSpace::fine_grid(ParamId::kMaxClients);
  EXPECT_EQ(grid.front(), 50);
  EXPECT_EQ(grid.back(), 600);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
  EXPECT_EQ(grid.size(), 23u);  // 50, 75, ..., 600
}

TEST(ConfigSpace, SnapToFineIsIdempotent) {
  Configuration c;
  c.set(ParamId::kMaxClients, 163);  // nearest grid points: 150 and 175
  const auto snapped = ConfigSpace::snap_to_fine(c);
  EXPECT_EQ(snapped.value(ParamId::kMaxClients), 175);
  EXPECT_EQ(ConfigSpace::snap_to_fine(snapped), snapped);
}

TEST(ConfigSpace, CoarseFractionsEvenlySpaced) {
  const ConfigSpace space(4);
  const auto fr = space.coarse_fractions();
  ASSERT_EQ(fr.size(), 4u);
  EXPECT_DOUBLE_EQ(fr[0], 0.0);
  EXPECT_NEAR(fr[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(fr[2], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(fr[3], 1.0);
}

TEST(ConfigSpace, ExpandGivesGroupMembersSameFraction) {
  const GroupFractions f = {0.0, 1.0, 0.5, 0.5};
  const Configuration c = ConfigSpace::expand(f);
  // Capacity group at fraction 0.
  EXPECT_EQ(c.value(ParamId::kMaxClients), 50);
  EXPECT_EQ(c.value(ParamId::kMaxThreads), 50);
  // Connection-life group at fraction 1.
  EXPECT_EQ(c.value(ParamId::kKeepAliveTimeout), 21);
  EXPECT_EQ(c.value(ParamId::kSessionTimeout), 35);
}

TEST(ConfigSpace, CoarseGridHasLevelsToTheGroups) {
  const ConfigSpace space(4);
  const auto grid = space.coarse_grid();
  EXPECT_EQ(grid.size(), 256u);  // 4^4
  std::set<std::size_t> unique;
  for (const auto& c : grid) unique.insert(c.hash());
  EXPECT_EQ(unique.size(), grid.size());
}

TEST(ConfigSpace, CoarseGridWithThreeLevels) {
  const ConfigSpace space(3);
  EXPECT_EQ(space.coarse_grid().size(), 81u);  // 3^4
}

TEST(ConfigSpace, NearestCoarseSnapsToGridMember) {
  const ConfigSpace space(4);
  const auto grid = space.coarse_grid();
  Configuration c;
  c.set(ParamId::kMaxClients, 240);  // near fraction 1/3 (233)
  c.set(ParamId::kMaxThreads, 220);
  const auto nearest = space.nearest_coarse(c);
  bool found = false;
  for (const auto& g : grid) {
    if (g == nearest) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ConfigSpace, NearestCoarseOfCoarsePointIsItself) {
  const ConfigSpace space(4);
  for (const auto& g : space.coarse_grid()) {
    EXPECT_EQ(space.nearest_coarse(g), g);
  }
}

TEST(ConfigSpace, RandomFineStaysOnGrid) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto c = ConfigSpace::random_fine(rng);
    EXPECT_EQ(ConfigSpace::snap_to_fine(c), c);
  }
}

TEST(ConfigSpace, RejectsTooFewCoarseLevels) {
  EXPECT_THROW(ConfigSpace(1), std::invalid_argument);
}

// Regression: the Table-1 catalog sanity checks migrated from ad-hoc
// asserts to contracts. validate_spec is callable in any build (the full
// validate_catalog additionally runs at ConfigSpace construction under
// RAC_AUDIT).
TEST(ConfigSpace, ValidateSpecAcceptsTheRealCatalog) {
  EXPECT_NO_THROW(validate_catalog());
}

TEST(ConfigSpace, ValidateSpecRejectsInvertedBounds) {
  ParamSpec bad = spec(ParamId::kMaxClients);
  bad.min = bad.max + 1;
  EXPECT_THROW(validate_spec(bad), util::ContractViolation);
}

TEST(ConfigSpace, ValidateSpecRejectsBadStepAndDefault) {
  ParamSpec bad = spec(ParamId::kMaxThreads);
  bad.fine_step = 0;
  EXPECT_THROW(validate_spec(bad), util::ContractViolation);

  ParamSpec wide = spec(ParamId::kMaxThreads);
  wide.fine_step = wide.max - wide.min + 1;
  EXPECT_THROW(validate_spec(wide), util::ContractViolation);

  ParamSpec stray = spec(ParamId::kSessionTimeout);
  stray.default_value = stray.max + 10;
  EXPECT_THROW(validate_spec(stray), util::ContractViolation);
}

}  // namespace
}  // namespace rac::config
