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

// A visited state's neighborhood: row and reward of apply(s, a) for every
// action, indexed by action id.
struct Visit {
  std::array<std::uint32_t, config::kNumActions> next_row{};
  std::array<double, config::kNumActions> reward{};
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
  // table. Each visited state gets a dense slot in `visits` on its first
  // visit, holding the row and reward of every neighbor (valid for the
  // whole batch: the MDP is static and row indices are stable). Later
  // visits -- the common case, since sweeps revisit the same states tens
  // of times -- skip configuration hashing and reward lookups entirely.
  // The reward model is a pure function of the state for the duration of
  // one batch, so `rewarded` memoizes it per neighbor row; computing it on
  // first encounter keeps the call order of a map keyed by configuration,
  // so reward functions with observable effects (metrics counters) fire
  // in the identical sequence.
  RowMap<std::uint32_t> visited;  // row -> index into `visits`
  std::vector<Visit> visits;
  RowMap<double> rewarded;        // row -> reward of entering it

  const auto actions = config::ConfigSpace::all_actions();
  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double error = 0.0;
    for (const auto& start : start_states) {
      config::Configuration s = start;
      for (int step = 0; step < params.trajectory_limit; ++step) {
        // Full backup of every action at the visited state. The visited
        // state's row is resolved once for all kNumActions updates; on the
        // first visit each neighbor gets (or reuses) a warm row, so its
        // max-Q read is dense indexing. Unwritten warm rows hold only
        // default values, so every read matches the absent-row answer bit
        // for bit (see qtable.hpp).
        const std::size_t s_row = table.ensure_row(s);
        const auto [slot, first_visit] = visited.try_emplace(s_row);
        if (first_visit) {
          *slot = static_cast<std::uint32_t>(visits.size());
          Visit& fill = visits.emplace_back();
          for (const config::Action a : actions) {
            const auto id = static_cast<std::size_t>(a.id());
            const config::Configuration next = config::ConfigSpace::apply(s, a);
            const std::size_t next_row =
                a.is_keep() ? s_row : table.ensure_row(next);
            const auto [r, unseen] = rewarded.try_emplace(next_row);
            if (unseen) *r = reward(next);
            fill.next_row[id] = static_cast<std::uint32_t>(next_row);
            fill.reward[id] = *r;
          }
        }
        const Visit& visit = visits[*slot];
        for (const config::Action a : actions) {
          const auto id = static_cast<std::size_t>(a.id());
          const double td = visit.reward[id] +
                            params.gamma * table.max_q_at(visit.next_row[id]) -
                            table.q_at(s_row, a);
          const double delta = params.alpha * td;
          table.add_q_at(s_row, a, delta);
          error = std::max(error, std::abs(delta));
          ++backups;
        }
        // Walk on epsilon-greedily; the walk chooses which states the next
        // backups touch.
        s = config::ConfigSpace::apply(s, policy.select(table, s, rng));
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
