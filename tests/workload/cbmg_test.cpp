#include "workload/cbmg.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/contracts.hpp"
#include "workload/session.hpp"

namespace rac::workload {
namespace {

TEST(Cbmg, RowsAreStochastic) {
  for (MixType mix : kAllMixes) {
    const auto& matrix = cbmg_matrix(mix);
    for (std::size_t i = 0; i < kNumInteractions; ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < kNumInteractions; ++j) {
        EXPECT_GE(matrix[i][j], 0.0);
        row_sum += matrix[i][j];
      }
      EXPECT_NEAR(row_sum, 1.0, 1e-9) << mix_name(mix) << " row " << i;
    }
  }
}

TEST(Cbmg, StationaryDistributionNearSpecFrequencies) {
  for (MixType mix : kAllMixes) {
    const auto pi = stationary_distribution(cbmg_matrix(mix));
    const auto freq = mix_frequencies(mix);
    double total = 0.0;
    for (std::size_t i = 0; i < kNumInteractions; ++i) {
      EXPECT_NEAR(pi[i], freq[i], 0.03)
          << mix_name(mix) << " " << interaction_name(static_cast<Interaction>(i));
      total += pi[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Cbmg, ForcedPairsDominateTheirRows) {
  // Search Request -> Search Results must be the most likely transition
  // out of Search Request (and similarly for the other forced pairs).
  const auto check = [](MixType mix, Interaction from, Interaction to) {
    const auto& row = cbmg_matrix(mix)[static_cast<std::size_t>(from)];
    double best = 0.0;
    std::size_t arg = 0;
    for (std::size_t j = 0; j < kNumInteractions; ++j) {
      if (row[j] > best) {
        best = row[j];
        arg = j;
      }
    }
    EXPECT_EQ(arg, static_cast<std::size_t>(to))
        << mix_name(mix) << ": " << interaction_name(from);
  };
  for (MixType mix : kAllMixes) {
    check(mix, Interaction::kSearchRequest, Interaction::kSearchResults);
  }
  // Buy Confirm's base frequency is large enough to dominate only in the
  // ordering mix (1.2% base in shopping vs 10.2% in ordering); in lighter
  // mixes the blend keeps the row closer to the steady-state frequencies.
  check(MixType::kOrdering, Interaction::kBuyRequest, Interaction::kBuyConfirm);
}

TEST(Cbmg, NavigationRaisesConditionalProbabilities) {
  // P(SearchResults | SearchRequest) must be far above the base rate.
  const auto mix = MixType::kShopping;
  const auto& matrix = cbmg_matrix(mix);
  const auto freq = mix_frequencies(mix);
  const double conditional =
      matrix[static_cast<std::size_t>(Interaction::kSearchRequest)]
            [static_cast<std::size_t>(Interaction::kSearchResults)];
  EXPECT_GT(conditional,
            2.0 * freq[static_cast<std::size_t>(Interaction::kSearchResults)]);
}

TEST(Cbmg, GeneratorFollowsForcedPairs) {
  SessionGenerator gen(MixType::kOrdering, util::Rng(5));
  int buy_requests = 0;
  int followed_by_confirm = 0;
  Interaction prev = Interaction::kHome;
  bool have_prev = false;
  for (int i = 0; i < 200000; ++i) {
    const auto step = gen.next();
    if (have_prev && !step.new_session && prev == Interaction::kBuyRequest) {
      ++buy_requests;
      if (step.interaction == Interaction::kBuyConfirm) ++followed_by_confirm;
    }
    prev = step.interaction;
    have_prev = true;
  }
  ASSERT_GT(buy_requests, 100);
  // Far more often than the ~10% base frequency of Buy Confirm.
  EXPECT_GT(static_cast<double>(followed_by_confirm) / buy_requests, 0.20);
}

TEST(Cbmg, OutOfEnumMixIsAContractViolation) {
  // The old code silently fell back to the shopping matrix; out-of-enum
  // input is corrupt data and must trip the contract instead.
  const auto bad = static_cast<MixType>(99);
  EXPECT_THROW(cbmg_matrix(bad), util::ContractViolation);
  EXPECT_THROW(entry_distribution(bad), util::ContractViolation);
}

TEST(Cbmg, ZeroMassDistributionIsAContractViolation) {
  TransitionMatrix zero{};  // all-zero rows: stationary mass would be 0/0
  EXPECT_THROW(stationary_distribution(zero), util::ContractViolation);
}

TEST(Cbmg, EntryDistributionMatchesTheStationaryDistribution) {
  for (const MixType mix : kAllMixes) {
    const auto& entry = entry_distribution(mix);
    const auto pi = stationary_distribution(cbmg_matrix(mix));
    double total = 0.0;
    for (std::size_t i = 0; i < kNumInteractions; ++i) {
      EXPECT_DOUBLE_EQ(entry[i], pi[i])
          << mix_name(mix) << " "
          << interaction_name(static_cast<Interaction>(i));
      total += entry[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Cbmg, SessionEntriesFollowTheEntryDistribution) {
  // Satellite fix: session entries used to draw from the spec frequencies
  // while navigation followed the CBMG chain -- two inconsistent
  // distributions. Entries now draw from the chain's stationary
  // distribution; the long-run entry histogram must match it.
  SessionGenerator gen(MixType::kShopping, util::Rng(8));
  std::array<int, kNumInteractions> entries{};
  int sessions = 0;
  for (int i = 0; i < 400000; ++i) {
    const auto step = gen.next();
    if (step.new_session) {
      ++entries[static_cast<std::size_t>(step.interaction)];
      ++sessions;
    }
  }
  ASSERT_GT(sessions, 5000);
  const auto pi = stationary_distribution(cbmg_matrix(MixType::kShopping));
  for (std::size_t i = 0; i < kNumInteractions; ++i) {
    EXPECT_NEAR(entries[i] / static_cast<double>(sessions), pi[i], 0.02)
        << interaction_name(static_cast<Interaction>(i));
  }
}

}  // namespace
}  // namespace rac::workload
