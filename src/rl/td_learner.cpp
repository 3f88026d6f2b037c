#include "rl/td_learner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rl/config_index.hpp"
#include "rl/policy.hpp"
#include "util/contracts.hpp"

namespace rac::rl {

namespace {

// An unset visit index.
constexpr std::uint32_t kNone = ~std::uint32_t{0};

// A state the batch touches, by its position in the batch's ConfigIndex:
// the reward of entering it (memoized: the reward model is a pure function
// of the state for the duration of one batch), the max of its values, and
// its visit once the walk has backed it up.
struct Local {
  std::uint32_t visit = kNone;  // index into `visits`
  double reward = 0.0;
  double max_q = 0.0;
};

// A visited state: its table row and the local index of apply(s, a) for
// every action, indexed by action id.
struct Visit {
  std::size_t row = 0;
  std::array<std::uint32_t, config::kNumActions> next{};
};

}  // namespace

TdResult batch_train(QTable& table,
                     std::span<const config::Configuration> start_states,
                     const RewardFn& reward, const TdParams& params,
                     util::Rng& rng, obs::Registry* registry) {
  if (!reward) throw std::invalid_argument("batch_train: empty reward fn");
  if (params.alpha <= 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("batch_train: alpha outside (0, 1]");
  }
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    throw std::invalid_argument("batch_train: gamma outside [0, 1)");
  }
  if (params.trajectory_limit < 1 || params.max_sweeps < 1) {
    throw std::invalid_argument("batch_train: non-positive budget");
  }

  const EpsilonGreedy policy(params.epsilon);
  TdResult result;
  if (start_states.empty()) {
    result.converged = true;
    return result;
  }

  // Telemetry handles (resolved once per batch against the injected
  // registry) and local accumulators: the inner loop runs millions of
  // backups per experiment, so counts are folded into the registry once
  // per batch, not per update.
  obs::Registry& reg = obs::registry_or_default(registry);
  obs::Counter& c_runs = reg.counter("rl.td.runs");
  obs::Counter& c_sweeps = reg.counter("rl.td.sweeps");
  obs::Counter& c_backups = reg.counter("rl.td.backups");
  obs::Counter& c_converged = reg.counter("rl.td.converged");
  obs::Gauge& g_error = reg.gauge("rl.td.last_error");
  obs::Histogram& h_train =
      reg.histogram("rl.td.batch_train_us", obs::latency_us_bounds());
  const obs::ProfileScope profile("rl.batch_train", h_train);
  std::uint64_t backups = 0;

  // Per-batch scratch, sized by the states the batch touches, never by the
  // table. Each touched state gets one dense local index on first touch,
  // its position in `touched`, and its reward and max are read then: a
  // neighbor's as the first visit reaches it, a start state's just before
  // its first visit's keep backup would ask for it.
  // That is the reward call order of a map keyed by configuration, so
  // reward functions with observable effects (metrics counters) fire in
  // the identical sequence. A touched state gets a table row only at its
  // first visit, whose backups write every action; a neighbor the walk
  // never visits keeps only its local. A visit stores its neighbors' local
  // indices (valid for the whole batch: the MDP is static) and the walk
  // steps to one of them, and a start state is resolved once, when its
  // first trajectory begins; so after a state's first visit a step hashes
  // nothing.
  //
  // Each local caches its state's max value, read through QTable::max_q
  // (the table's own row, else the base's, else the default): the values
  // its row would be made from. Only the visited row is written (by its
  // own backups), so every other local's cache holds while it is read; the
  // visited row's max moves with each backup and is read live within them
  // (keep, and moves clamped at a range boundary, lead back to it), then
  // refreshed.
  ConfigIndex touched;  // position = index into `locals`
  std::vector<Local> locals;
  std::vector<Visit> visits;
  const auto touch = [&](const config::Configuration& c) {
    const auto [local, first_touch] = touched.insert(c);
    if (first_touch) locals.push_back({kNone, reward(c), table.max_q(c)});
    return static_cast<std::uint32_t>(local);
  };
  std::vector<std::uint32_t> start_local(start_states.size(), kNone);

  const auto actions = config::ConfigSpace::all_actions();
  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double error = 0.0;
    for (std::size_t k = 0; k < start_states.size(); ++k) {
      config::Configuration s = start_states[k];
      if (start_local[k] == kNone) start_local[k] = touch(s);
      std::uint32_t at = start_local[k];
      for (int step = 0; step < params.trajectory_limit; ++step) {
        // Full backup of every action at the visited state. On the first
        // visit the state gets its row and each neighbor a local index.
        if (locals[at].visit == kNone) {
          Visit fill;
          fill.row = table.ensure_row(s);
          for (const config::Action a : actions) {
            fill.next[static_cast<std::size_t>(a.id())] =
                a.is_keep() ? at : touch(config::ConfigSpace::apply(s, a));
          }
          locals[at].visit = static_cast<std::uint32_t>(visits.size());
          visits.push_back(fill);
        }
        const Visit& visit = visits[locals[at].visit];
        const std::size_t s_row = visit.row;
        for (const config::Action a : actions) {
          const std::uint32_t n = visit.next[static_cast<std::size_t>(a.id())];
          const double next_max =
              n == at ? table.max_q_at(s_row) : locals[n].max_q;
          const double td = locals[n].reward + params.gamma * next_max -
                            table.q_at(s_row, a);
          const double delta = params.alpha * td;
          table.add_q_at(s_row, a, delta);
          error = std::max(error, std::abs(delta));
          ++backups;
        }
        locals[at].max_q = table.max_q_at(s_row);
        // Walk on epsilon-greedily; the walk chooses which states the next
        // backups touch.
        const config::Action a = policy.select_at(table, s_row, rng);
        s = config::ConfigSpace::apply(s, a);
        at = visit.next[static_cast<std::size_t>(a.id())];
      }
    }
    result.sweeps = sweep + 1;
    result.final_error = error;
    if (error < params.theta) {
      result.converged = true;
      break;
    }
  }

  c_runs.add(1);
  c_sweeps.add(static_cast<std::uint64_t>(result.sweeps));
  c_backups.add(backups);
  if (result.converged) c_converged.add(1);
  g_error.set(result.final_error);

  if constexpr (util::kAuditEnabled) {
    // A single NaN reward poisons every value it backs up into; scan the
    // whole table after the batch so the poisoning is caught at its source
    // experiment, not intervals later as a mysteriously frozen policy.
    for (const auto& state : table.states()) {
      for (const config::Action a : actions) {
        RAC_AUDIT(std::isfinite(table.q(state, a)),
                  "batch_train: non-finite Q value after batch");
      }
    }
    RAC_AUDIT(std::isfinite(result.final_error),
              "batch_train: non-finite TD error");
  }
  return result;
}

}  // namespace rac::rl
