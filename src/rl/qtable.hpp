// Sparse tabular Q-value store over (configuration, action) pairs.
//
// The fine-grained joint configuration space is ~10^8 states; an agent
// trajectory touches a vanishing fraction of it, so the table is dense row
// storage found through one ConfigIndex:
//
//   index_      the states with a row, in first-touch order
//   rows_[i]    the kNumActions Q values of index_[i], contiguous
//
// A row exists only once written: the TD learner makes a state's row at
// its first visit, whose backups write every action, and set_q/add_q
// write the action they make the row for. States without a row read as a
// caller-chosen default (0 by default; the policy initializer seeds them
// from the regression-predicted surface instead), and an action a row
// never wrote holds the default in force when the row was made.
//
// Overlay: a table may read through a shared, immutable base table (an
// online agent's table over its library policy's). Reads answer from the
// table's own row, else the base's, else the default, and the public
// surface is the merged view. ensure_row copies a base row into the table
// on first touch, so row handles see the table's own writes; the base is
// never written. A base is never itself an overlay. Shard threads read one
// base at once, so every const path here reads the table and nothing else:
// no caches, no lazily built state.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "config/space.hpp"
#include "rl/config_index.hpp"

namespace rac::rl {

class QTable {
 public:
  using ActionValues = std::array<double, config::kNumActions>;

  /// Sentinel returned by find_row for states with no row.
  static constexpr std::size_t npos = ConfigIndex::npos;

  QTable() = default;

  /// Q(s, a); returns `default_q` for states without a row.
  double q(const config::Configuration& s, config::Action a) const;

  void set_q(const config::Configuration& s, config::Action a, double value);

  /// Q(s, a) += delta (creates the row if absent).
  void add_q(const config::Configuration& s, config::Action a, double delta);

  /// max_a Q(s, a).
  double max_q(const config::Configuration& s) const;

  /// argmax_a Q(s, a); ties break toward the lowest action id
  /// (deterministically), which prefers "keep".
  config::Action best_action(const config::Configuration& s) const;

  bool contains(const config::Configuration& s) const;
  /// Number of states with a row in the merged view.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Drops every row and the base.
  void clear();

  double default_q() const noexcept { return default_q_; }
  void set_default_q(double value) noexcept { default_q_ = value; }

  /// Drops this table's own rows and reads through `base` from now on,
  /// taking its default; nullptr leaves an empty plain table. The base is
  /// shared, not copied. Throws std::invalid_argument when `base` is
  /// itself an overlay.
  void rebase(std::shared_ptr<const QTable> base);
  /// Keeps this table's own rows and reads through `base` beneath them:
  /// the overlay that a snapshot's saved own rows describe. nullptr leaves
  /// a plain table of the own rows. Throws std::invalid_argument, leaving
  /// the table unchanged, unless fits_base(base).
  void overlay_on(std::shared_ptr<const QTable> base);
  /// Whether overlay_on accepts `base`: nullptr, or a plain table whose
  /// default is this table's bit for bit (rebase gives an overlay its
  /// base's default, sign included).
  bool fits_base(const QTable* base) const noexcept;
  const std::shared_ptr<const QTable>& base() const noexcept { return base_; }

  /// All states with a row, in first-touch order (deterministic: a pure
  /// function of the mutation history). An overlay lists the base's
  /// states first, in the base's order, then the states only it holds:
  /// the order of a full copy of the base.
  std::vector<config::Configuration> states() const;

  /// Calls fn(state, values) once per state of states(), in that order.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    visit_rows([&fn](const QTable& table, std::size_t row) {
      fn(table.index_[row], table.rows_[row]);
    });
  }

  /// Calls fn(state, values) once per own row (num_rows() of them), in
  /// first-touch order; the base's rows are not visited.
  template <typename Fn>
  void for_each_own_row(Fn&& fn) const {
    for (std::size_t row = 0; row < num_rows(); ++row) {
      fn(index_[row], rows_[row]);
    }
  }

  /// A plain table holding the rows of the merged view, in states()
  /// order, with their values and the same default: every read and the
  /// serialized bytes are unchanged, and num_rows() == size().
  QTable compacted() const;

  // Hot-path row handles -----------------------------------------------
  //
  // The TD inner loop runs millions of backups per experiment and touches
  // the same few rows per visited state; these index-based accessors let
  // it hash each configuration once and then work on dense storage. Row
  // indices address this table's own rows, never the base's; they are
  // stable for the life of the table (rows are never erased or
  // reordered) and invalidated by clear() and rebase().

  /// Index of s's own row, creating it if absent: a copy of the base's
  /// row when the base has one, else a default-filled row. A row it makes
  /// is part of the table, so its caller writes it.
  std::size_t ensure_row(const config::Configuration& s);
  /// Index of s's own row, or npos when this table holds none.
  std::size_t find_row(const config::Configuration& s) const {
    return index_.find(s);
  }
  /// Own rows; the base's rows are not counted.
  std::size_t num_rows() const noexcept { return index_.size(); }

  double q_at(std::size_t row, config::Action a) const {
    return rows_[row][static_cast<std::size_t>(a.id())];
  }
  void add_q_at(std::size_t row, config::Action a, double delta) {
    rows_[row][static_cast<std::size_t>(a.id())] += delta;
  }
  double max_q_at(std::size_t row) const;
  config::Action best_action_at(std::size_t row) const;

 private:
  /// The values answering reads of s: the own row's, else the base's, else
  /// nullptr.
  const ActionValues* find_values(const config::Configuration& s) const;

  /// Calls fn(table, row) for each row of the merged view, in states()
  /// order; `table` is this table or the base.
  template <typename Fn>
  void visit_rows(Fn&& fn) const {
    if (base_ != nullptr) {
      for (std::size_t row = 0; row < base_->num_rows(); ++row) {
        const std::size_t own = find_row(base_->index_[row]);
        if (own == npos) {
          fn(*base_, row);
        } else {
          fn(*this, own);
        }
      }
    }
    for (std::size_t row = 0; row < num_rows(); ++row) {
      if (base_ == nullptr || base_->find_row(index_[row]) == npos) {
        fn(*this, row);
      }
    }
  }

  ConfigIndex index_;
  std::vector<ActionValues> rows_;
  /// Rows of the merged view.
  std::size_t size_ = 0;
  double default_q_ = 0.0;
  std::shared_ptr<const QTable> base_;
};

}  // namespace rac::rl
