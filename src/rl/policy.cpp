#include "rl/policy.hpp"

#include <stdexcept>

namespace rac::rl {

namespace {
config::Action random_action(util::Rng& rng) {
  return config::Action(
      rng.uniform_int(0, static_cast<int>(config::kNumActions) - 1));
}
}  // namespace

EpsilonGreedy::EpsilonGreedy(double epsilon) : epsilon_(epsilon) {
  set_epsilon(epsilon);
}

void EpsilonGreedy::set_epsilon(double epsilon) {
  if (epsilon < 0.0 || epsilon > 1.0) {
    throw std::invalid_argument("EpsilonGreedy: epsilon outside [0, 1]");
  }
  epsilon_ = epsilon;
}

config::Action EpsilonGreedy::select(const QTable& table,
                                     const config::Configuration& s,
                                     util::Rng& rng) const {
  if (rng.bernoulli(epsilon_)) return random_action(rng);
  return table.best_action(s);
}

config::Action EpsilonGreedy::select_at(const QTable& table, std::size_t row,
                                        util::Rng& rng) const {
  if (rng.bernoulli(epsilon_)) return random_action(rng);
  return table.best_action_at(row);
}

Selection EpsilonGreedy::select_detailed(const QTable& table,
                                         const config::Configuration& s,
                                         util::Rng& rng) const {
  Selection sel;
  if (rng.bernoulli(epsilon_)) {
    sel.explored = true;
    sel.action = random_action(rng);
  } else {
    sel.action = table.best_action(s);
  }
  sel.q_value = table.q(s, sel.action);
  return sel;
}

config::Action greedy_action(const QTable& table,
                             const config::Configuration& s) {
  return table.best_action(s);
}

}  // namespace rac::rl
