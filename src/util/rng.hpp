// Deterministic, fast pseudo-random number generation.
//
// Everything in this repository that needs randomness takes an explicit
// `Rng&` so that experiments are reproducible from a single seed. The
// engine is xoshiro256** (Blackman & Vigna), seeded via SplitMix64 so that
// small, human-chosen seeds still produce well-mixed state.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace rac::util {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Deterministic per-task seed: mixes `base` with `index` so parallel work
/// can draw from independent, reproducible streams. Results depend only on
/// the two inputs -- never on thread count or execution order -- which is
/// what makes the pool's fan-out bit-identical to a serial run.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;

/// Complete serializable engine state: the four xoshiro words plus the
/// Box-Muller cache (`normal` computes values in pairs; dropping the
/// cached half on restore would shift every later draw). Checkpoint code
/// round-trips this so a restored agent continues the exact stream.
struct RngState {
  std::array<std::uint64_t, 4> words{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;
};

/// The persisted form of an RngState, one token line in the util/lineio
/// idiom: "<label> <word0> <word1> <word2> <word3> <cached flag>
/// <cached normal>\n". read_rng_state expects `label` first and throws
/// std::runtime_error naming it on malformed input, an all-zero word state
/// (which Rng::restore rejects) included.
void write_rng_state(std::ostream& os, std::string_view label,
                     const RngState& state);
RngState read_rng_state(std::istream& is, std::string_view label);

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi
  /// (contract; RAC_EXPECT).
  int uniform_int(int lo, int hi);

  /// Exponentially distributed sample with the given mean (> 0; contract).
  double exponential(double mean);

  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Lognormal multiplier with E[X] == 1 and the given sigma of log X.
  /// Useful for multiplicative measurement noise.
  double lognormal_unit(double sigma) noexcept;

  /// Bernoulli trial.
  bool bernoulli(double p) noexcept;

  /// Number of bernoulli(p) trials up to and including the first success
  /// (>= 1), sampled by inversion from a single uniform draw. p in (0, 1]
  /// (contract).
  int geometric(double p);

  /// Sample an index from a discrete distribution given by non-negative
  /// weights (need not be normalized; at least one must be positive --
  /// contract).
  std::size_t categorical(std::span<const double> weights);

  /// Fork an independent stream (seeded from this one).
  Rng split() noexcept;

  /// Snapshot of the full engine state (stream position included).
  RngState state() const noexcept;

  /// Resume from a snapshot. Throws std::invalid_argument for an all-zero
  /// word state (the one configuration xoshiro cannot leave).
  void restore(const RngState& state);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace rac::util
