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
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
  void clear();

  double default_q() const noexcept { return default_q_; }
  void set_default_q(double value) noexcept { default_q_ = value; }

  /// All states with at least one written action value, in first-touch
  /// order (deterministic: a pure function of the mutation history).
  std::vector<config::Configuration> states() const;

  /// Merge every written row of `other` into this table, action by action:
  /// a (state, action) the source wrote overwrites the target's value, and
  /// actions the source never wrote keep the target's value. (Whole-row
  /// overwrite would silently drop target-written actions on collision.)
  /// No caller in the library currently collides -- the parallel policy
  /// build trains disjoint per-context tables -- but the merge semantics
  /// are what that workload would need.
  void absorb(const QTable& other);

  // Hot-path row handles -----------------------------------------------
  //
  // The TD inner loop runs millions of backups per experiment and touches
  // the same few rows per visited state; these index-based accessors let
  // it hash each configuration once and then work on dense storage. Row
  // indices are stable for the life of the table (rows are never erased
  // or reordered); they are invalidated by clear().

  /// Index of s's row, creating a default-filled (unwritten) row if absent.
  std::size_t ensure_row(const config::Configuration& s);
  /// Index of s's row, or npos when the state has no row.
  std::size_t find_row(const config::Configuration& s) const;

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

  // Read-only row view ---------------------------------------------------
  //
  // Serialization walks the rows directly instead of re-finding every
  // state by hash. Rows are indexed [0, num_rows()); only written rows are
  // part of the public table (warm rows hold defaults and are skipped).

  std::size_t num_rows() const noexcept { return keys_.size(); }
  bool row_written(std::size_t row) const { return written_[row] != 0; }
  const config::Configuration& key_at(std::size_t row) const {
    return keys_[row];
  }
  const ActionValues& values_at(std::size_t row) const { return rows_[row]; }

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

  std::vector<config::Configuration> keys_;
  std::vector<ActionValues> rows_;
  std::vector<std::uint32_t> written_;
  std::vector<std::uint32_t> slots_;
  std::size_t num_written_ = 0;
  double default_q_ = 0.0;
};

}  // namespace rac::rl
