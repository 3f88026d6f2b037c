#include "rl/td_learner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rl/policy.hpp"
#include "util/contracts.hpp"

namespace rac::rl {

namespace {

// Flat open-addressing map from a table row to a Value: one vector of
// (row + 1, value) entries, power-of-two capacity from 64, linear probing,
// load factor <= 1/2, doubling as it fills. It holds only the rows one
// batch touches, so a retrain that visits a hundred states of a
// 10^5-row library table keeps kilobytes of scratch instead of arrays
// spanning the table.
template <typename Value>
class RowMap {
 public:
  // The value of `row` and whether `row` was just inserted (its value is
  // then Value{}). The pointer stays valid until the next try_emplace.
  std::pair<Value*, bool> try_emplace(std::size_t row) {
    if ((size_ + 1) * 2 > entries_.size()) grow();
    const auto key = static_cast<std::uint32_t>(row) + 1;
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.key == key) return {&e.value, false};
      if (e.key == 0) {
        e.key = key;
        ++size_;
        return {&e.value, true};
      }
    }
  }

 private:
  struct Entry {
    std::uint32_t key = 0;  // row + 1; 0 marks an empty entry
    Value value{};
  };
  static constexpr std::size_t kInitialCapacity = 64;

  // Fibonacci hashing: rows are small consecutive integers, and the top
  // bits of the product spread them over the whole probe table.
  std::size_t home(std::uint32_t key) const {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    const std::vector<Entry> old = std::move(entries_);
    const std::size_t capacity =
        old.empty() ? kInitialCapacity : old.size() * 2;
    entries_.assign(capacity, Entry{});
    shift_ = 64 - std::countr_zero(capacity);
    const std::size_t mask = capacity - 1;
    for (const Entry& e : old) {
      if (e.key == 0) continue;
      std::size_t i = home(e.key);
      while (entries_[i].key != 0) i = (i + 1) & mask;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  int shift_ = 64;
  std::size_t size_ = 0;
};

// An unset local or visit index.
constexpr std::uint32_t kNone = ~std::uint32_t{0};

// A row the batch touches, by its dense local index: the row, the reward
// of entering its state (memoized: the reward model is a pure function of
// the state for the duration of one batch), the max of its values, and its
// visit once the walk has backed it up.
struct Local {
  std::uint32_t row = 0;
  std::uint32_t visit = kNone;  // index into `visits`
  double reward = 0.0;
  double max_q = 0.0;
};

// A visited state's neighborhood: the local index of apply(s, a) for every
// action, indexed by action id.
struct Visit {
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

  // Per-batch scratch, sized by the rows the batch touches, never by the
  // table. Each touched row gets one dense local index on first touch
  // (`local_of` is the only row-keyed lookup), and its reward is computed
  // then: a neighbor's as the first visit reaches it, a start state's just
  // before its first visit's keep backup would ask for it. That is the
  // reward call order of a map keyed by configuration, so reward functions
  // with observable effects (metrics counters) fire in the identical
  // sequence. A visit stores its neighbors' local indices (valid for the
  // whole batch: the MDP is static and row indices are stable) and the
  // walk steps to one of them, and a start state is resolved once, when
  // its first trajectory begins; so after a state's first visit a step
  // hashes nothing.
  //
  // Each local caches its row's max value. Only the visited row is written
  // (by its own backups), so every other row's cache holds while it is
  // read; the visited row's max moves with each backup and is read live
  // within them (keep, and moves clamped at a range boundary, lead back to
  // it), then refreshed. Unwritten warm rows hold only default values, so
  // every read matches the absent-row answer bit for bit (see qtable.hpp).
  RowMap<std::uint32_t> local_of;  // row -> index into `locals`
  std::vector<Local> locals;
  std::vector<Visit> visits;
  const auto touch = [&](const config::Configuration& c) {
    const std::size_t row = table.ensure_row(c);
    const auto [slot, first_touch] = local_of.try_emplace(row);
    if (first_touch) {
      *slot = static_cast<std::uint32_t>(locals.size());
      locals.push_back({static_cast<std::uint32_t>(row), kNone, reward(c),
                        table.max_q_at(row)});
    }
    return *slot;
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
        // visit each neighbor gets (or reuses) a row and a local index.
        if (locals[at].visit == kNone) {
          Visit fill;
          for (const config::Action a : actions) {
            fill.next[static_cast<std::size_t>(a.id())] =
                a.is_keep() ? at : touch(config::ConfigSpace::apply(s, a));
          }
          locals[at].visit = static_cast<std::uint32_t>(visits.size());
          visits.push_back(fill);
        }
        const std::size_t s_row = locals[at].row;
        const Visit& visit = visits[locals[at].visit];
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
