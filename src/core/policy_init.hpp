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

#include <cstdint>

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
  util::QuadraticSurface surface;  // predicts log(response_ms)
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
