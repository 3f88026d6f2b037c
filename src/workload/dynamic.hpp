// Dynamic traffic: composable per-interval workload decorators.
//
// Every experiment so far drove one static TPC-W mix, while the paper's
// whole premise is adapting to workload *change*. A TrafficModel is an
// ordered stack of TrafficShape decorators over a base mix; for each
// measurement interval it emits a TrafficTarget -- a (concurrency scale,
// mix blend, think-time scale) triple -- that the environments consume
// through env::Environment::set_traffic_model. Four shapes:
//
//   * DiurnalShape    -- sinusoidal day/night concurrency cycle;
//   * FlashCrowdShape -- seeded random onsets that ramp to a peak load,
//                        hold it, and decay back (the slashdot effect);
//   * MixDriftShape   -- linear blend from one MixType to another over a
//                        window (browsing traffic turning into ordering);
//   * ThinkNoiseShape -- heavy-tailed (lognormal) per-interval think-time
//                        modulation.
//
// Determinism contract: target_at is a pure function of (shapes, interval,
// base mix). Stochastic shapes draw from one throwaway Rng seeded by
// util::derive_seed(shape seed, interval) plus a per-kind salt -- the
// fault::FaultyEnv::faults_at idiom -- never from a shared stream, so a
// target stream is bitwise identical at any RAC_THREADS, across
// clone_with_seed, and across a checkpoint/restore boundary. A model is
// run input, built in code and shared by const pointer, and has no
// on-disk form: checkpoints persist only the environments' interval
// cursor, and a resumed run re-installs the same model.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "workload/tpcw.hpp"

namespace rac::workload {

inline constexpr std::size_t kNumMixes = 3;
static_assert(kAllMixes.size() == kNumMixes);

/// One interval's workload target. The mix blend is a convex combination
/// over kAllMixes (in enum order); `concurrency_scale` multiplies the
/// environment's configured browser population and `think_scale`
/// multiplies the per-browser think and pause means.
struct TrafficTarget {
  double concurrency_scale = 1.0;
  std::array<double, kNumMixes> mix_weights{};
  double think_scale = 1.0;
};

/// The static mix as a target: all weight on `mix`, unit scales. It is the
/// target of every interval without a traffic model, so the environments
/// have one load path. Blending a one-hot weight vector reproduces the
/// plain mix_stats / browser_profile bitwise in every field (0.0 * x
/// contributes +0.0 for the non-negative blended fields, and the divisions
/// are by exactly 1.0), which keeps every digest recorded before traffic
/// models existed.
TrafficTarget one_hot_target(MixType mix);

/// The browser population of an environment configured for `base` clients
/// under `target`: base * concurrency_scale rounded to nearest, at least
/// one. A unit scale returns `base` for any base >= 1. Throws
/// std::invalid_argument when the product is not finite or rounds above
/// INT_MAX.
int scaled_population(int base, const TrafficTarget& target);

/// Bitwise equality (doubles compared by representation, so a copied
/// target always matches and -0.0 != +0.0): the environments use this to
/// detect target changes without tripping float-eq tolerance questions.
bool same_target(const TrafficTarget& a, const TrafficTarget& b);

/// Weight-blended per-request statistics / browser profile. Weights must
/// be non-negative with a positive sum (contract); they are normalized
/// internally. blend_browser_profile additionally multiplies the think and
/// pause means by `think_scale` (> 0, contract). A one-hot blend with unit
/// think_scale is bitwise identical to the plain mix_stats(mix) /
/// browser_profile(mix).
MixStats blend_mix_stats(const std::array<double, kNumMixes>& weights);
BrowserProfile blend_browser_profile(
    const std::array<double, kNumMixes>& weights, double think_scale = 1.0);

/// One composable decorator. apply() must be a pure function of
/// (*this, interval): implementations hold only immutable parameters.
class TrafficShape {
 public:
  virtual ~TrafficShape() = default;

  /// Fold this shape's effect for `interval` (>= 0) into `target`.
  virtual void apply(std::int64_t interval, TrafficTarget& target) const = 0;
};

// ---- diurnal sinusoid ------------------------------------------------------

struct DiurnalParams {
  /// Intervals per day (one full sinusoid cycle); > 0.
  double period_intervals = 96.0;
  /// Peak deviation of the concurrency multiplier from 1; in [0, 1).
  double amplitude = 0.4;
  /// Phase offset in intervals (the sinusoid starts rising at 0).
  double phase_intervals = 0.0;
};

/// concurrency *= 1 + amplitude * sin(2*pi * (interval + phase) / period).
class DiurnalShape final : public TrafficShape {
 public:
  /// Throws std::invalid_argument for a non-positive or non-finite period,
  /// an amplitude outside [0, 1), or a non-finite phase.
  explicit DiurnalShape(const DiurnalParams& params);

  void apply(std::int64_t interval, TrafficTarget& target) const override;

 private:
  DiurnalParams params_;
};

// ---- flash crowd -----------------------------------------------------------

struct FlashCrowdParams {
  /// Seed of the onset script (independent of everything else).
  std::uint64_t seed = 7;
  /// Per-interval probability that a crowd begins; in [0, 1].
  double onset_prob = 0.01;
  /// Intervals ramping up toward the peak (>= 1).
  int ramp_intervals = 2;
  /// Intervals held at the peak (>= 0).
  int hold_intervals = 4;
  /// Intervals decaying back to baseline (>= 1).
  int decay_intervals = 6;
  /// Concurrency multiplier at the peak (> 1).
  double peak_scale = 2.5;
};

/// Longest crowd (ramp + hold + decay) a FlashCrowdShape accepts.
/// flash_scale_at scans that many candidate onsets for every interval, and
/// a real crowd lasts hours to days, so a longer one is corrupt input.
inline constexpr std::int64_t kMaxFlashCrowdIntervals = 10000;

/// Total footprint of one crowd in intervals (ramp + hold + decay). The
/// parameters must be ones a FlashCrowdShape accepts, so the sum fits.
int flash_crowd_duration(const FlashCrowdParams& params);

/// Pure per-interval onset decision: does a crowd begin at `interval`?
/// One throwaway Rng per interval -- usable by tests and benches to scan
/// for a seed whose day contains exactly the onsets they want.
bool flash_onset_at(const FlashCrowdParams& params, std::int64_t interval);

/// Concurrency multiplier contributed at `interval` (>= 1; overlapping
/// crowds take the max rather than stacking).
double flash_scale_at(const FlashCrowdParams& params, std::int64_t interval);

class FlashCrowdShape final : public TrafficShape {
 public:
  /// Throws std::invalid_argument for an onset probability outside [0, 1],
  /// non-positive ramp/decay, negative hold, a crowd longer than
  /// kMaxFlashCrowdIntervals, or a peak_scale that is <= 1 or not finite.
  explicit FlashCrowdShape(const FlashCrowdParams& params);

  void apply(std::int64_t interval, TrafficTarget& target) const override;

 private:
  FlashCrowdParams params_;
};

// ---- gradual mix drift -----------------------------------------------------

struct MixDriftParams {
  MixType from = MixType::kShopping;
  MixType to = MixType::kOrdering;
  /// First interval of the drift window.
  std::int64_t start_interval = 0;
  /// Window length (>= 1): the blend moves linearly from all-`from` at
  /// `start_interval` to all-`to` at `start_interval + duration`.
  int duration_intervals = 1;
};

/// Replaces the incoming blend outright (a blend of blends has no
/// workload meaning): before the window the target is one-hot `from`,
/// after it one-hot `to`, both bitwise exact.
class MixDriftShape final : public TrafficShape {
 public:
  /// Throws std::invalid_argument for a negative start or a non-positive
  /// duration.
  explicit MixDriftShape(const MixDriftParams& params);

  void apply(std::int64_t interval, TrafficTarget& target) const override;

 private:
  MixDriftParams params_;
};

// ---- heavy-tailed think-time modulation ------------------------------------

struct ThinkNoiseParams {
  std::uint64_t seed = 11;
  /// Sigma of the lognormal think multiplier (E[X] = 1); >= 0.
  double sigma = 0.25;
};

class ThinkNoiseShape final : public TrafficShape {
 public:
  /// Throws std::invalid_argument for a negative sigma.
  explicit ThinkNoiseShape(const ThinkNoiseParams& params);

  void apply(std::int64_t interval, TrafficTarget& target) const override;

 private:
  ThinkNoiseParams params_;
};

// ---- the model -------------------------------------------------------------

/// An immutable-once-built ordered stack of shapes. Shapes are held by
/// shared const pointer so a model can be handed to thousands of tenants
/// (the fleet does) for the price of the pointers.
class TrafficModel {
 public:
  TrafficModel() = default;

  TrafficModel& add(std::shared_ptr<const TrafficShape> shape);
  TrafficModel& add_diurnal(const DiurnalParams& params);
  TrafficModel& add_flash_crowd(const FlashCrowdParams& params);
  TrafficModel& add_mix_drift(const MixDriftParams& params);
  TrafficModel& add_think_noise(const ThinkNoiseParams& params);

  bool empty() const noexcept { return shapes_.empty(); }

  /// The target for one interval: starts from one_hot_target(base_mix) and
  /// applies every shape in insertion order. Pure function of
  /// (shapes, interval, base_mix); interval must be >= 0 (contract).
  TrafficTarget target_at(std::int64_t interval, MixType base_mix) const;

 private:
  std::vector<std::shared_ptr<const TrafficShape>> shapes_;
};

}  // namespace rac::workload
