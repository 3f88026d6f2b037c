// Dense index of distinct configurations: the one configuration-keyed hash
// table of src/rl.
//
// The i-th distinct configuration inserted has position i for the life of
// the index (nothing is erased; clear() drops everything), so callers keep
// their per-configuration data in plain vectors beside it: a Q-table its
// rows, an experience store its entries, a TD batch its per-call locals.
//
//   keys_   the configurations, in insertion order
//   slots_  power-of-two probe table mapping a configuration's hash() to
//           its position + 1 (0 = empty), linear probing, load factor
//           <= 1/2
//
// Shard threads read one library table at once, so the const lookups read
// storage and nothing else: no caches, no lazily built state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "config/configuration.hpp"

namespace rac::rl {

class ConfigIndex {
 public:
  /// Sentinel returned by find for configurations not in the index.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Position of `c`, or npos when absent.
  std::size_t find(const config::Configuration& c) const;

  /// Position of `c`, appending it at position size() when absent; the
  /// flag is true when this call appended it.
  std::pair<std::size_t, bool> insert(const config::Configuration& c);

  const config::Configuration& operator[](std::size_t i) const {
    return keys_[i];
  }
  std::span<const config::Configuration> keys() const noexcept { return keys_; }
  std::size_t size() const noexcept { return keys_.size(); }
  void clear() noexcept;

 private:
  /// Probe slot whose value is either 0 (absent; insert here) or the
  /// position of `c` + 1. Requires a non-empty probe table.
  std::size_t probe(const config::Configuration& c) const;
  void grow_slots();

  std::vector<config::Configuration> keys_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace rac::rl
