// Policy initialization (paper Section 4.1, Algorithm 2).
//
// Online RL from a cold Q-table suffers a long stretch of poor performance.
// RAC therefore pre-learns an initial policy per system context, offline:
//
//   1. Parameter grouping: the eight parameters collapse into four groups
//      (capacity / connection-life / spare-low / spare-high); members of a
//      group always take the same (normalized) value.
//   2. Coarse data collection: sample the performance of the coarse group
//      grid (coarse_levels^4 configurations) on the offline environment.
//   3. Regression: fit a quadratic response surface (all parameters have a
//      concave-upward effect, so a low-order polynomial generalizes) and
//      use it to predict the performance of unvisited configurations.
//   4. Offline RL: run Algorithm 1 over the sampled+predicted reward model
//      to produce the initial Q-table.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "config/space.hpp"
#include "core/reward.hpp"
#include "env/environment.hpp"
#include "rl/qtable.hpp"
#include "rl/td_learner.hpp"
#include "util/regression.hpp"

namespace rac::obs {
class Registry;
}  // namespace rac::obs

namespace rac::util {
class ThreadPool;
}  // namespace rac::util

namespace rac::core {

struct PolicyInitOptions {
  int coarse_levels = 4;  // positions per group during data collection
  SlaSpec sla{};
  /// Offline Algorithm-1 constants (paper: alpha=.1, gamma=.9, eps=.1).
  rl::TdParams offline_td{0.1, 0.9, 0.1, 1e-3, 10, 300};
  std::uint64_t seed = 7;
  /// Registry receiving core.policy_init.* / rl.td.* telemetry; nullptr
  /// means obs::default_registry().
  obs::Registry* registry = nullptr;
  /// Worker pool for the coarse measurement fan-out; nullptr means the
  /// process-wide obs::shared_pool().
  util::ThreadPool* pool = nullptr;
};

/// A policy's regression surface over Configuration::normalized_values()
/// together with its feature columns: for every integer value of each
/// parameter, the standardized input and its powers, read off the
/// surface's own feature map (util::QuadraticSurface::features) when the
/// surface is set. predict() sums the weights times tabulated features in
/// LinearModel::predict's order, so it equals
/// regression().predict(c.normalized_values()) bit for bit, with no pow
/// call and no allocation. The columns are built eagerly and never
/// change (library policies are read by shard threads at once), so copies
/// share them.
class TabulatedSurface {
 public:
  TabulatedSurface() = default;  // unfitted
  /// Throws std::invalid_argument when a fitted surface's dimension is not
  /// config::kNumParams.
  explicit TabulatedSurface(util::QuadraticSurface surface);

  bool fitted() const noexcept { return surface_.fitted(); }
  const util::QuadraticSurface& regression() const noexcept {
    return surface_;
  }
  /// regression().predict(c.normalized_values()). Requires fitted().
  double predict(const config::Configuration& c) const;
  /// Sum over the weights of |weight| times the largest |feature| it meets
  /// at any configuration. No partial sum of predict() exceeds it (up to
  /// rounding), so a bound well below DBL_MAX means no configuration's
  /// prediction overflows or reads NaN. Meaningful for finite weights,
  /// means and scales.
  double magnitude_bound() const;

 private:
  struct Feature {
    double z = 0.0;                 // standardized input
    std::array<double, 3> power{};  // z^1 .. z^degree, as features() has them
  };
  util::QuadraticSurface surface_;
  /// Every parameter's values, back to back; parameter i's value v is at
  /// origin_[i] + v.
  std::shared_ptr<const std::vector<Feature>> columns_;
  std::array<std::ptrdiff_t, config::kNumParams> origin_{};
};

/// A context-specific initial policy: the pre-learned Q-table plus the
/// regression surface it was trained from (kept for predicting the
/// performance of states the online agent has not yet visited, and for
/// recognizing which context a live measurement resembles).
///
/// The surface is fitted on log(response time): response times span two to
/// three orders of magnitude between a starved and a tuned configuration,
/// and a low-order polynomial only has a well-placed interior minimum once
/// that range is compressed.
struct InitialPolicy {
  env::SystemContext context;
  rl::QTable table;
  TabulatedSurface surface;  // predicts log(response_ms)
  SlaSpec sla;
  config::Configuration best_sampled;  // best coarse sample (reporting)
  double best_sampled_response_ms = 0.0;
  double regression_r2 = 0.0;          // fit quality over the samples

  /// Predicted response time of an arbitrary configuration.
  double predict_response_ms(const config::Configuration& c) const;

  /// Predicted reward of a configuration.
  double predict_reward(const config::Configuration& c) const;
};

/// Run Algorithm 2 against `environment` (assumed already set to the
/// context being trained for).
///
/// Determinism: every coarse sample is measured once on a private clone
/// reseeded from (environment seed, sample index), so the result is
/// bit-identical regardless of the pool's thread count and of any
/// measurements previously drawn from `environment`. An environment that
/// cannot clone (clone_with_seed returns nullptr) throws
/// std::invalid_argument.
InitialPolicy learn_initial_policy(env::Environment& environment,
                                   const PolicyInitOptions& options = {});

/// Bitwise equality of two trained policies: same context, coarse-sample
/// optimum, fit quality, Q-table contents and regression predictions over
/// the coarse grid. Used by the determinism golden tests and benches to
/// prove parallel training reproduces serial output exactly.
bool exactly_equal(const InitialPolicy& a, const InitialPolicy& b);

}  // namespace rac::core
