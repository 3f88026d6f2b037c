// Sparse tabular Q-value store over (configuration, action) pairs.
//
// The fine-grained joint configuration space is ~10^8 states; an agent
// trajectory touches a vanishing fraction of it, so the table is a flat
// open-addressing hash index over dense row storage:
//
//   keys_[i]    the i-th distinct configuration, in first-touch order
//   rows_[i]    its kNumActions Q values, contiguous
//   written_[i] bitmask of actions ever set_q/add_q'ed on the row
//   slots_      power-of-two probe table mapping hash(config) -> i + 1
//
// Unvisited states read as a caller-chosen default (0 by default; the
// policy initializer seeds them from the regression-predicted surface
// instead). Rows whose written mask is zero are invisible to the public
// surface (size/states/contains/serialization): they are warm cache slots
// the TD inner loop creates for neighbor states so repeat lookups are one
// probe instead of repeated hashing, and every value they hold equals the
// default, so reads through them match the no-row answer bit for bit.
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
#include <cstdint>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "config/space.hpp"

namespace rac::rl {

class QTable {
 public:
  using ActionValues = std::array<double, config::kNumActions>;

  /// Sentinel returned by find_row for states with no row.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  QTable() = default;

  /// Q(s, a); returns `default_q` for never-written states.
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
  /// Number of states with at least one written action value.
  std::size_t size() const noexcept { return num_written_; }
  bool empty() const noexcept { return num_written_ == 0; }
  /// Drops every row and the base.
  void clear();

  double default_q() const noexcept { return default_q_; }
  void set_default_q(double value) noexcept { default_q_ = value; }

  /// Drops this table's own rows and reads through `base` from now on,
  /// taking its default; nullptr leaves an empty plain table. The base is
  /// shared, not copied. Throws std::invalid_argument when `base` is
  /// itself an overlay.
  void rebase(std::shared_ptr<const QTable> base);
  const std::shared_ptr<const QTable>& base() const noexcept { return base_; }

  /// All states with at least one written action value, in first-touch
  /// order (deterministic: a pure function of the mutation history). An
  /// overlay lists the base's states first, in the base's order, then the
  /// states only it holds: the order of a full copy of the base.
  std::vector<config::Configuration> states() const;

  /// Calls fn(state, values) once per state of states(), in that order.
  template <typename Fn>
  void for_each_written(Fn&& fn) const {
    visit_written([&fn](const QTable& table, std::size_t row) {
      fn(table.keys_[row], table.rows_[row]);
    });
  }

  /// A plain table holding only the written rows of the merged view, in
  /// states() order, with their values and written masks and the same
  /// default: every read and the serialized bytes are unchanged, and
  /// num_rows() == size().
  QTable compacted() const;

  // Hot-path row handles -----------------------------------------------
  //
  // The TD inner loop runs millions of backups per experiment and touches
  // the same few rows per visited state; these index-based accessors let
  // it hash each configuration once and then work on dense storage. Row
  // indices address this table's own rows, never the base's; they are
  // stable for the life of the table (rows are never erased or
  // reordered) and invalidated by clear() and rebase().

  /// Index of s's row, creating it if absent: a copy of the base's row
  /// (values and written mask) when the base has one, else a
  /// default-filled unwritten row.
  std::size_t ensure_row(const config::Configuration& s);
  /// Index of s's own row, or npos when this table holds none.
  std::size_t find_row(const config::Configuration& s) const;
  /// Own rows, written or warm; the base's rows are not counted.
  std::size_t num_rows() const noexcept { return keys_.size(); }

  double q_at(std::size_t row, config::Action a) const {
    return rows_[row][static_cast<std::size_t>(a.id())];
  }
  void add_q_at(std::size_t row, config::Action a, double delta) {
    const auto id = static_cast<std::size_t>(a.id());
    rows_[row][id] += delta;
    mark_written(row, id);
  }
  double max_q_at(std::size_t row) const;
  config::Action best_action_at(std::size_t row) const;

 private:
  void mark_written(std::size_t row, std::size_t action) {
    const std::uint32_t bit = std::uint32_t{1} << action;
    if ((written_[row] & bit) == 0) {
      if (written_[row] == 0) ++num_written_;
      written_[row] |= bit;
    }
  }
  /// Probe slot whose value is either 0 (state absent; insert here) or
  /// the state's row index + 1.
  std::size_t probe(const config::Configuration& s) const;
  void grow_slots();
  /// The values answering reads of s: the own row's, else the base's, else
  /// nullptr.
  const ActionValues* find_values(const config::Configuration& s) const;

  /// Calls fn(table, row) for each written row of the merged view, in
  /// states() order; `table` is this table or the base.
  template <typename Fn>
  void visit_written(Fn&& fn) const {
    if (base_ != nullptr) {
      for (std::size_t row = 0; row < base_->keys_.size(); ++row) {
        const std::size_t own = find_row(base_->keys_[row]);
        if (own == npos) {
          if (base_->written_[row] != 0) fn(*base_, row);
        } else if (written_[own] != 0) {
          fn(*this, own);
        }
      }
    }
    for (std::size_t row = 0; row < keys_.size(); ++row) {
      if (written_[row] == 0) continue;
      if (base_ != nullptr && base_->find_row(keys_[row]) != npos) continue;
      fn(*this, row);
    }
  }

  std::vector<config::Configuration> keys_;
  std::vector<ActionValues> rows_;
  std::vector<std::uint32_t> written_;
  std::vector<std::uint32_t> slots_;
  /// Written states of the merged view.
  std::size_t num_written_ = 0;
  double default_q_ = 0.0;
  std::shared_ptr<const QTable> base_;
};

}  // namespace rac::rl
