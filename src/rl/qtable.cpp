#include "rl/qtable.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rac::rl {

static_assert(config::kNumActions <= 32,
              "QTable written mask packs one bit per action into uint32");

namespace {
// Initial probe-table size; must be a power of two. Doubling takes it from
// an online agent's few hundred own rows to a library table trained
// offline, which reaches ~5*10^4 written rows.
constexpr std::size_t kInitialSlots = 64;

double max_of(const QTable::ActionValues& values) {
  return *std::max_element(values.begin(), values.end());
}

config::Action argmax_of(const QTable::ActionValues& values) {
  std::size_t best = 0;
  for (std::size_t a = 1; a < values.size(); ++a) {
    if (values[a] > values[best]) best = a;
  }
  return config::Action(static_cast<int>(best));
}
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
  // A base row is copied whole, written mask included, so the merged
  // view (and num_written_) is unchanged until this table writes it.
  const std::size_t base_row = base_ == nullptr ? npos : base_->find_row(s);
  if (base_row == npos) {
    rows_.emplace_back().fill(default_q_);
    written_.push_back(0);
  } else {
    rows_.push_back(base_->rows_[base_row]);
    written_.push_back(base_->written_[base_row]);
  }
  slots_[slot] = static_cast<std::uint32_t>(row) + 1;
  return row;
}

std::size_t QTable::find_row(const config::Configuration& s) const {
  if (slots_.empty()) return npos;
  const std::size_t slot = probe(s);
  return slots_[slot] == 0 ? npos : slots_[slot] - 1;
}

const QTable::ActionValues* QTable::find_values(
    const config::Configuration& s) const {
  std::size_t row = find_row(s);
  if (row != npos) return &rows_[row];
  if (base_ != nullptr && (row = base_->find_row(s)) != npos) {
    return &base_->rows_[row];
  }
  return nullptr;
}

double QTable::q(const config::Configuration& s, config::Action a) const {
  const ActionValues* values = find_values(s);
  return values == nullptr ? default_q_
                           : (*values)[static_cast<std::size_t>(a.id())];
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
  const ActionValues* values = find_values(s);
  return values == nullptr ? default_q_ : max_of(*values);
}

double QTable::max_q_at(std::size_t row) const { return max_of(rows_[row]); }

config::Action QTable::best_action(const config::Configuration& s) const {
  const ActionValues* values = find_values(s);
  return values == nullptr ? config::Action::keep() : argmax_of(*values);
}

config::Action QTable::best_action_at(std::size_t row) const {
  return argmax_of(rows_[row]);
}

bool QTable::contains(const config::Configuration& s) const {
  const std::size_t row = find_row(s);
  if (row != npos) return written_[row] != 0;
  return base_ != nullptr && base_->contains(s);
}

void QTable::clear() {
  keys_.clear();
  rows_.clear();
  written_.clear();
  slots_.clear();
  num_written_ = 0;
  base_.reset();
}

void QTable::rebase(std::shared_ptr<const QTable> base) {
  if (base != nullptr && base->base_ != nullptr) {
    throw std::invalid_argument("QTable::rebase: the base is an overlay");
  }
  clear();
  if (base != nullptr) {
    num_written_ = base->num_written_;
    default_q_ = base->default_q_;
  }
  base_ = std::move(base);
}

std::vector<config::Configuration> QTable::states() const {
  std::vector<config::Configuration> out;
  out.reserve(num_written_);
  visit_written([&out](const QTable& table, std::size_t row) {
    out.push_back(table.keys_[row]);
  });
  return out;
}

QTable QTable::compacted() const {
  QTable out;
  out.default_q_ = default_q_;
  out.keys_.reserve(num_written_);
  out.rows_.reserve(num_written_);
  out.written_.reserve(num_written_);
  visit_written([&out](const QTable& table, std::size_t row) {
    out.keys_.push_back(table.keys_[row]);
    out.rows_.push_back(table.rows_[row]);
    out.written_.push_back(table.written_[row]);
  });
  out.num_written_ = num_written_;
  out.grow_slots();
  return out;
}

}  // namespace rac::rl
