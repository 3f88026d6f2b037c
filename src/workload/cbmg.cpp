#include "workload/cbmg.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace rac::workload {

namespace {

constexpr std::size_t idx(Interaction i) { return static_cast<std::size_t>(i); }

/// Structural navigation affinities: multiplier applied to the target's
/// base frequency when coming from a given page. Mirrors the forced and
/// likely edges of the TPC-W site map.
struct Affinity {
  Interaction from;
  Interaction to;
  double boost;
};

constexpr Affinity kAffinities[] = {
    // Forced request/response pairs.
    {Interaction::kSearchRequest, Interaction::kSearchResults, 30.0},
    {Interaction::kBuyRequest, Interaction::kBuyConfirm, 25.0},
    {Interaction::kAdminRequest, Interaction::kAdminConfirm, 40.0},
    {Interaction::kOrderInquiry, Interaction::kOrderDisplay, 30.0},
    // The checkout funnel.
    {Interaction::kShoppingCart, Interaction::kCustomerRegistration, 6.0},
    {Interaction::kCustomerRegistration, Interaction::kBuyRequest, 10.0},
    // Browsing chains.
    {Interaction::kHome, Interaction::kNewProducts, 2.0},
    {Interaction::kHome, Interaction::kBestSellers, 2.0},
    {Interaction::kHome, Interaction::kSearchRequest, 2.0},
    {Interaction::kNewProducts, Interaction::kProductDetail, 3.0},
    {Interaction::kBestSellers, Interaction::kProductDetail, 3.0},
    {Interaction::kSearchResults, Interaction::kProductDetail, 3.0},
    {Interaction::kProductDetail, Interaction::kProductDetail, 2.0},
    {Interaction::kProductDetail, Interaction::kShoppingCart, 2.0},
};

/// Blend weight of the rank-one (frequency) component; the rest follows
/// the structural affinities. High enough that the stationary distribution
/// stays near the spec frequencies.
constexpr double kRankOneWeight = 0.72;

TransitionMatrix build_matrix(MixType mix) {
  const auto freq = mix_frequencies(mix);
  TransitionMatrix structural{};
  for (std::size_t i = 0; i < kNumInteractions; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < kNumInteractions; ++j) {
      double boost = 1.0;
      for (const auto& a : kAffinities) {
        if (idx(a.from) == i && idx(a.to) == j) boost = a.boost;
      }
      structural[i][j] = freq[j] * boost;
      row_sum += structural[i][j];
    }
    for (std::size_t j = 0; j < kNumInteractions; ++j) {
      structural[i][j] /= row_sum;
    }
  }
  TransitionMatrix out{};
  for (std::size_t i = 0; i < kNumInteractions; ++i) {
    for (std::size_t j = 0; j < kNumInteractions; ++j) {
      out[i][j] =
          kRankOneWeight * freq[j] + (1.0 - kRankOneWeight) * structural[i][j];
    }
  }
  return out;
}

}  // namespace

const TransitionMatrix& cbmg_matrix(MixType mix) {
  static const TransitionMatrix browsing = build_matrix(MixType::kBrowsing);
  static const TransitionMatrix shopping = build_matrix(MixType::kShopping);
  static const TransitionMatrix ordering = build_matrix(MixType::kOrdering);
  switch (mix) {
    case MixType::kBrowsing: return browsing;
    case MixType::kShopping: return shopping;
    case MixType::kOrdering: return ordering;
  }
  // An out-of-enum MixType is a caller bug (a cast from untrusted data),
  // not a mix to approximate: silently handing back the shopping matrix
  // here once masked exactly that.
  RAC_EXPECT(false, "cbmg_matrix: mix outside the MixType enum");
}

const std::array<double, kNumInteractions>& entry_distribution(MixType mix) {
  static const std::array<double, kNumInteractions> browsing =
      stationary_distribution(cbmg_matrix(MixType::kBrowsing));
  static const std::array<double, kNumInteractions> shopping =
      stationary_distribution(cbmg_matrix(MixType::kShopping));
  static const std::array<double, kNumInteractions> ordering =
      stationary_distribution(cbmg_matrix(MixType::kOrdering));
  switch (mix) {
    case MixType::kBrowsing: return browsing;
    case MixType::kShopping: return shopping;
    case MixType::kOrdering: return ordering;
  }
  RAC_EXPECT(false, "entry_distribution: mix outside the MixType enum");
}

std::array<double, kNumInteractions> stationary_distribution(
    const TransitionMatrix& matrix, int iterations) {
  std::array<double, kNumInteractions> pi{};
  pi.fill(1.0 / kNumInteractions);
  for (int it = 0; it < iterations; ++it) {
    std::array<double, kNumInteractions> next{};
    for (std::size_t i = 0; i < kNumInteractions; ++i) {
      for (std::size_t j = 0; j < kNumInteractions; ++j) {
        next[j] += pi[i] * matrix[i][j];
      }
    }
    pi = next;
  }
  // Normalize against accumulated rounding. A zero total means the input
  // was not row-stochastic (an all-zero matrix loses the whole mass), and
  // dividing by it would silently return an all-NaN "distribution".
  double total = 0.0;
  for (double p : pi) total += p;
  RAC_EXPECT(total > 0.0, "stationary_distribution: zero-mass distribution");
  for (double& p : pi) p /= total;
  return pi;
}

}  // namespace rac::workload
