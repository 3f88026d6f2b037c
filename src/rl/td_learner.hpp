// Batch temporal-difference learning (paper Algorithm 1).
//
// The learner sweeps a set of start states; from each it follows an
// epsilon-greedy trajectory of bounded length through the deterministic
// reconfiguration MDP (state = configuration, action = one-parameter
// inc/dec/keep). At every visited state it backs up ALL actions:
//
//   for each a:  Q(s, a) += alpha * (r(s') + gamma * max_a' Q(s', a') - Q(s, a))
//
// and repeats sweeps until the largest update falls below theta or the
// sweep budget is exhausted. Rewards come from a caller-supplied model of
// the next state's performance -- measured experience, regression
// predictions, or a blend (the paper's offline pre-learning and online
// batch retraining both instantiate this).
//
// Implementation note: the paper's pseudo-code updates only the single
// epsilon-greedy action per step. Because the reward here is model-based
// (no environment interaction is spent), a synchronous full-action backup
// at each visited state gives the same fixed point with orders-of-magnitude
// fewer sweeps; the epsilon-greedy walk still decides *which* states are
// swept, as in the paper.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "config/configuration.hpp"
#include "config/space.hpp"
#include "rl/qtable.hpp"
#include "util/rng.hpp"

namespace rac::obs {
class Registry;
}  // namespace rac::obs

namespace rac::rl {

/// Reward of *entering* a state (the paper's r = SLA - perf, normalized).
using RewardFn = std::function<double(const config::Configuration&)>;

struct TdParams {
  double alpha = 0.1;    // learning rate
  double gamma = 0.9;    // discount
  double epsilon = 0.1;  // exploration rate of the sweep policy
  double theta = 1e-3;   // convergence threshold on the max update
  int trajectory_limit = 10;  // LIMIT: steps per start state per sweep
  int max_sweeps = 200;       // hard bound on `repeat` iterations

  bool operator==(const TdParams&) const = default;
};

struct TdResult {
  int sweeps = 0;
  double final_error = 0.0;
  bool converged = false;
};

/// Run Algorithm 1 over `start_states`, updating `table` in place.
/// `registry` receives the learner's rl.td.* telemetry; nullptr means
/// obs::default_registry(). Handles are resolved per call (the lookup is
/// mutex-guarded), so concurrent pool tasks may train against different
/// registries safely.
TdResult batch_train(QTable& table,
                     std::span<const config::Configuration> start_states,
                     const RewardFn& reward, const TdParams& params,
                     util::Rng& rng, obs::Registry* registry = nullptr);

}  // namespace rac::rl
