// Action-selection policies over a Q-table.
#pragma once

#include <cstddef>

#include "config/configuration.hpp"
#include "config/space.hpp"
#include "rl/qtable.hpp"
#include "util/rng.hpp"

namespace rac::rl {

/// A selection plus how it was made (decision tracing reports both).
struct Selection {
  config::Action action;
  bool explored = false;  // epsilon branch taken (vs greedy)
  double q_value = 0.0;   // Q(s, action) at selection time
};

/// epsilon-greedy: with probability epsilon pick a uniformly random action,
/// otherwise the greedy one.
class EpsilonGreedy {
 public:
  explicit EpsilonGreedy(double epsilon);

  double epsilon() const noexcept { return epsilon_; }
  void set_epsilon(double epsilon);

  config::Action select(const QTable& table, const config::Configuration& s,
                        util::Rng& rng) const;

  /// `select` at the state whose own row is `row`: the same draws, and
  /// the greedy pick read off the row instead of probing for it.
  config::Action select_at(const QTable& table, std::size_t row,
                           util::Rng& rng) const;

  /// Like `select`, also reporting the explore/greedy branch and Q-value.
  Selection select_detailed(const QTable& table,
                            const config::Configuration& s,
                            util::Rng& rng) const;

 private:
  double epsilon_;
};

/// Always greedy (epsilon == 0).
config::Action greedy_action(const QTable& table,
                             const config::Configuration& s);

}  // namespace rac::rl
