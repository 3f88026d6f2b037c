#include "rl/qtable.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rac::rl {

namespace {
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

std::size_t QTable::ensure_row(const config::Configuration& s) {
  const auto [row, inserted] = index_.insert(s);
  if (!inserted) return row;
  const std::size_t base_row = base_ == nullptr ? npos : base_->find_row(s);
  if (base_row == npos) {
    rows_.emplace_back().fill(default_q_);
    ++size_;
  } else {
    rows_.push_back(base_->rows_[base_row]);
  }
  return row;
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
  rows_[ensure_row(s)][static_cast<std::size_t>(a.id())] = value;
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
  return find_values(s) != nullptr;
}

void QTable::clear() {
  index_.clear();
  rows_.clear();
  size_ = 0;
  base_.reset();
}

void QTable::rebase(std::shared_ptr<const QTable> base) {
  if (base != nullptr && base->base_ != nullptr) {
    throw std::invalid_argument("QTable::rebase: the base is an overlay");
  }
  clear();
  if (base != nullptr) {
    size_ = base->size_;
    default_q_ = base->default_q_;
  }
  base_ = std::move(base);
}

std::vector<config::Configuration> QTable::states() const {
  std::vector<config::Configuration> out;
  out.reserve(size_);
  visit_rows([&out](const QTable& table, std::size_t row) {
    out.push_back(table.index_[row]);
  });
  return out;
}

QTable QTable::compacted() const {
  QTable out;
  out.default_q_ = default_q_;
  out.rows_.reserve(size_);
  visit_rows([&out](const QTable& table, std::size_t row) {
    out.index_.insert(table.index_[row]);
    out.rows_.push_back(table.rows_[row]);
  });
  out.size_ = size_;
  return out;
}

}  // namespace rac::rl
