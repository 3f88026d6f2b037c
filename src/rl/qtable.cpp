#include "rl/qtable.hpp"

#include <algorithm>

namespace rac::rl {

static_assert(config::kNumActions <= 32,
              "QTable written mask packs one bit per action into uint32");

namespace {
// Initial probe-table size; must be a power of two. Doubling takes it from
// an online agent's few hundred experienced states to a library table
// trained offline, which reaches ~10^5 rows with its warm neighbor rows.
constexpr std::size_t kInitialSlots = 64;
}  // namespace

std::size_t QTable::probe(const config::Configuration& s) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = s.hash() & mask;
  while (slots_[i] != 0) {
    if (keys_[slots_[i] - 1] == s) return i;
    i = (i + 1) & mask;
  }
  return i;
}

void QTable::grow_slots() {
  // Double, but never below twice the row count: a rebuild over a table
  // smaller than the key list would probe forever looking for a free slot.
  std::size_t capacity = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  while (capacity < (keys_.size() + 1) * 2) capacity *= 2;
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t row = 0; row < keys_.size(); ++row) {
    std::size_t i = keys_[row].hash() & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(row) + 1;
  }
}

std::size_t QTable::ensure_row(const config::Configuration& s) {
  // Keep the probe table under half full so probe chains stay short.
  if (slots_.size() < (keys_.size() + 1) * 2) grow_slots();
  const std::size_t slot = probe(s);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  const std::size_t row = keys_.size();
  keys_.push_back(s);
  rows_.emplace_back();
  rows_.back().fill(default_q_);
  written_.push_back(0);
  slots_[slot] = static_cast<std::uint32_t>(row) + 1;
  return row;
}

std::size_t QTable::find_row(const config::Configuration& s) const {
  if (slots_.empty()) return npos;
  const std::size_t slot = probe(s);
  return slots_[slot] == 0 ? npos : slots_[slot] - 1;
}

double QTable::q(const config::Configuration& s, config::Action a) const {
  const std::size_t row = find_row(s);
  if (row == npos) return default_q_;
  return q_at(row, a);
}

void QTable::set_q(const config::Configuration& s, config::Action a,
                   double value) {
  const std::size_t row = ensure_row(s);
  const auto id = static_cast<std::size_t>(a.id());
  rows_[row][id] = value;
  mark_written(row, id);
}

void QTable::add_q(const config::Configuration& s, config::Action a,
                   double delta) {
  add_q_at(ensure_row(s), a, delta);
}

double QTable::max_q(const config::Configuration& s) const {
  const std::size_t row = find_row(s);
  if (row == npos) return default_q_;
  return max_q_at(row);
}

double QTable::max_q_at(std::size_t row) const {
  const ActionValues& values = rows_[row];
  return *std::max_element(values.begin(), values.end());
}

config::Action QTable::best_action(const config::Configuration& s) const {
  const std::size_t row = find_row(s);
  if (row == npos) return config::Action::keep();
  return best_action_at(row);
}

config::Action QTable::best_action_at(std::size_t row) const {
  const ActionValues& values = rows_[row];
  std::size_t best = 0;
  for (std::size_t a = 1; a < values.size(); ++a) {
    if (values[a] > values[best]) best = a;
  }
  return config::Action(static_cast<int>(best));
}

bool QTable::contains(const config::Configuration& s) const {
  const std::size_t row = find_row(s);
  return row != npos && written_[row] != 0;
}

void QTable::clear() {
  keys_.clear();
  rows_.clear();
  written_.clear();
  slots_.clear();
  num_written_ = 0;
}

std::vector<config::Configuration> QTable::states() const {
  std::vector<config::Configuration> out;
  out.reserve(num_written_);
  for (std::size_t row = 0; row < keys_.size(); ++row) {
    if (written_[row] != 0) out.push_back(keys_[row]);
  }
  return out;
}

void QTable::absorb(const QTable& other) {
  for (std::size_t src = 0; src < other.keys_.size(); ++src) {
    const std::uint32_t mask = other.written_[src];
    if (mask == 0) continue;
    const std::size_t dst = ensure_row(other.keys_[src]);
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      if ((mask >> a) & 1U) {
        rows_[dst][a] = other.rows_[src][a];
        mark_written(dst, a);
      }
    }
  }
}

}  // namespace rac::rl
