#include "workload/dynamic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace rac::workload {

namespace {

// Per-kind salts folded into the per-interval seed derivation so two
// stochastic shapes accidentally sharing a seed still draw independent
// scripts (the FaultyEnv per-(interval, kind) idiom).
constexpr std::uint64_t kFlashSalt = 0xF1A5'0000'0001ULL;
constexpr std::uint64_t kThinkSalt = 0xF1A5'0000'0003ULL;

constexpr std::size_t idx(MixType mix) {
  return static_cast<std::size_t>(static_cast<int>(mix));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

util::Rng interval_rng(std::uint64_t seed, std::int64_t interval,
                       std::uint64_t salt) {
  return util::Rng(util::derive_seed(
      util::derive_seed(seed, static_cast<std::uint64_t>(interval)), salt));
}

}  // namespace

TrafficTarget one_hot_target(MixType mix) {
  const std::size_t i = idx(mix);
  RAC_EXPECT(i < kNumMixes, "one_hot_target: mix outside the MixType enum");
  TrafficTarget target;
  target.mix_weights[i] = 1.0;
  return target;
}

int scaled_population(int base, const TrafficTarget& target) {
  const double scaled = static_cast<double>(base) * target.concurrency_scale;
  return std::max(1, static_cast<int>(std::lround(scaled)));
}

bool same_target(const TrafficTarget& a, const TrafficTarget& b) {
  if (!same_bits(a.concurrency_scale, b.concurrency_scale)) return false;
  if (!same_bits(a.think_scale, b.think_scale)) return false;
  for (std::size_t i = 0; i < kNumMixes; ++i) {
    if (!same_bits(a.mix_weights[i], b.mix_weights[i])) return false;
  }
  return true;
}

MixStats blend_mix_stats(const std::array<double, kNumMixes>& weights) {
  double total = 0.0;
  for (const double w : weights) {
    RAC_EXPECT(w >= 0.0, "blend_mix_stats: negative mix weight");
    total += w;
  }
  RAC_EXPECT(total > 0.0, "blend_mix_stats: zero-mass mix blend");
  MixStats out{};
  for (std::size_t i = 0; i < kNumMixes; ++i) {
    const MixStats s = mix_stats(kAllMixes[i]);
    const double w = weights[i];
    out.web_demand_ms += w * s.web_demand_ms;
    out.app_demand_ms += w * s.app_demand_ms;
    out.db_demand_ms += w * s.db_demand_ms;
    out.write_fraction += w * s.write_fraction;
    out.session_fraction += w * s.session_fraction;
    out.order_fraction += w * s.order_fraction;
    out.think_time_mean_s += w * s.think_time_mean_s;
    out.session_length_mean += w * s.session_length_mean;
  }
  out.web_demand_ms /= total;
  out.app_demand_ms /= total;
  out.db_demand_ms /= total;
  out.write_fraction /= total;
  out.session_fraction /= total;
  out.order_fraction /= total;
  out.think_time_mean_s /= total;
  out.session_length_mean /= total;
  return out;
}

BrowserProfile blend_browser_profile(
    const std::array<double, kNumMixes>& weights, double think_scale) {
  RAC_EXPECT(think_scale > 0.0,
             "blend_browser_profile: non-positive think_scale");
  double total = 0.0;
  for (const double w : weights) {
    RAC_EXPECT(w >= 0.0, "blend_browser_profile: negative mix weight");
    total += w;
  }
  RAC_EXPECT(total > 0.0, "blend_browser_profile: zero-mass mix blend");
  BrowserProfile out{};
  for (std::size_t i = 0; i < kNumMixes; ++i) {
    const BrowserProfile p = browser_profile(kAllMixes[i]);
    const double w = weights[i];
    out.think_time_mean_s += w * p.think_time_mean_s;
    out.session_length_mean += w * p.session_length_mean;
    out.inter_session_gap_s += w * p.inter_session_gap_s;
    out.pause_prob += w * p.pause_prob;
    out.pause_mean_s += w * p.pause_mean_s;
  }
  out.think_time_mean_s /= total;
  out.session_length_mean /= total;
  out.inter_session_gap_s /= total;
  out.pause_prob /= total;
  out.pause_mean_s /= total;
  out.think_time_mean_s *= think_scale;
  out.pause_mean_s *= think_scale;
  return out;
}

// ---- diurnal ---------------------------------------------------------------

DiurnalShape::DiurnalShape(const DiurnalParams& params) : params_(params) {
  if (!(params_.period_intervals > 0.0 &&
        std::isfinite(params_.period_intervals))) {
    throw std::invalid_argument(
        "DiurnalShape: non-positive or non-finite period");
  }
  if (!(params_.amplitude >= 0.0 && params_.amplitude < 1.0)) {
    throw std::invalid_argument("DiurnalShape: amplitude outside [0, 1)");
  }
  if (!std::isfinite(params_.phase_intervals)) {
    throw std::invalid_argument("DiurnalShape: non-finite phase");
  }
}

void DiurnalShape::apply(std::int64_t interval, TrafficTarget& target) const {
  const double angle = 2.0 * std::numbers::pi_v<double> *
                       (static_cast<double>(interval) +
                        params_.phase_intervals) /
                       params_.period_intervals;
  target.concurrency_scale *= 1.0 + params_.amplitude * std::sin(angle);
}

// ---- flash crowd -----------------------------------------------------------

FlashCrowdShape::FlashCrowdShape(const FlashCrowdParams& params)
    : params_(params) {
  if (!(params_.onset_prob >= 0.0 && params_.onset_prob <= 1.0)) {
    throw std::invalid_argument("FlashCrowdShape: onset_prob outside [0, 1]");
  }
  if (params_.ramp_intervals < 1) {
    throw std::invalid_argument("FlashCrowdShape: non-positive ramp");
  }
  if (params_.hold_intervals < 0) {
    throw std::invalid_argument("FlashCrowdShape: negative hold");
  }
  if (params_.decay_intervals < 1) {
    throw std::invalid_argument("FlashCrowdShape: non-positive decay");
  }
  if (std::int64_t{params_.ramp_intervals} + params_.hold_intervals +
          params_.decay_intervals >
      kMaxFlashCrowdIntervals) {
    throw std::invalid_argument(
        "FlashCrowdShape: crowd longer than kMaxFlashCrowdIntervals");
  }
  if (!(params_.peak_scale > 1.0 && std::isfinite(params_.peak_scale))) {
    throw std::invalid_argument(
        "FlashCrowdShape: peak_scale must be finite and exceed 1");
  }
}

int flash_crowd_duration(const FlashCrowdParams& params) {
  return params.ramp_intervals + params.hold_intervals +
         params.decay_intervals;
}

bool flash_onset_at(const FlashCrowdParams& params, std::int64_t interval) {
  if (interval < 0 || params.onset_prob <= 0.0) return false;
  util::Rng rng = interval_rng(params.seed, interval, kFlashSalt);
  return rng.bernoulli(params.onset_prob);
}

double flash_scale_at(const FlashCrowdParams& params, std::int64_t interval) {
  // Scan the onset window that could still affect this interval; each
  // candidate onset is an independent per-interval draw, so the scan is
  // pure and O(duration) regardless of history.
  const int duration = flash_crowd_duration(params);
  double scale = 1.0;
  const std::int64_t first =
      std::max<std::int64_t>(0, interval - duration + 1);
  for (std::int64_t onset = first; onset <= interval; ++onset) {
    if (!flash_onset_at(params, onset)) continue;
    const std::int64_t elapsed = interval - onset;
    const double lift = params.peak_scale - 1.0;
    double factor = 1.0;
    if (elapsed < params.ramp_intervals) {
      factor = 1.0 + lift * static_cast<double>(elapsed + 1) /
                         static_cast<double>(params.ramp_intervals + 1);
    } else if (elapsed < params.ramp_intervals + params.hold_intervals) {
      factor = params.peak_scale;
    } else {
      const std::int64_t d =
          elapsed - params.ramp_intervals - params.hold_intervals;
      factor = 1.0 + lift * static_cast<double>(params.decay_intervals - d) /
                         static_cast<double>(params.decay_intervals + 1);
    }
    // Overlapping crowds peak together rather than stacking: the audience
    // is shared, not multiplied.
    scale = std::max(scale, factor);
  }
  return scale;
}

void FlashCrowdShape::apply(std::int64_t interval,
                            TrafficTarget& target) const {
  target.concurrency_scale *= flash_scale_at(params_, interval);
}

// ---- mix drift -------------------------------------------------------------

MixDriftShape::MixDriftShape(const MixDriftParams& params) : params_(params) {
  if (params_.start_interval < 0) {
    throw std::invalid_argument("MixDriftShape: negative start");
  }
  if (params_.duration_intervals < 1) {
    throw std::invalid_argument("MixDriftShape: non-positive duration");
  }
  const std::size_t from = idx(params_.from);
  const std::size_t to = idx(params_.to);
  if (from >= kNumMixes || to >= kNumMixes) {
    throw std::invalid_argument("MixDriftShape: mix outside the MixType enum");
  }
}

void MixDriftShape::apply(std::int64_t interval, TrafficTarget& target) const {
  // Fraction of the drift completed: exactly 0.0 before the window and
  // exactly 1.0 after it, so the endpoints are bitwise one-hot.
  double f = 0.0;
  if (interval > params_.start_interval) {
    f = std::min(1.0,
                 static_cast<double>(interval - params_.start_interval) /
                     static_cast<double>(params_.duration_intervals));
  }
  std::array<double, kNumMixes> weights{};
  weights[idx(params_.from)] += 1.0 - f;
  weights[idx(params_.to)] += f;
  // The drift pins the blend outright: blending an incoming blend with
  // another blend has no workload meaning.
  target.mix_weights = weights;
}

// ---- think noise -----------------------------------------------------------

ThinkNoiseShape::ThinkNoiseShape(const ThinkNoiseParams& params)
    : params_(params) {
  if (!(params_.sigma >= 0.0)) {
    throw std::invalid_argument("ThinkNoiseShape: negative sigma");
  }
}

void ThinkNoiseShape::apply(std::int64_t interval,
                            TrafficTarget& target) const {
  if (params_.sigma <= 0.0) return;
  util::Rng rng = interval_rng(params_.seed, interval, kThinkSalt);
  target.think_scale *= rng.lognormal_unit(params_.sigma);
}

// ---- the model -------------------------------------------------------------

TrafficModel& TrafficModel::add(std::shared_ptr<const TrafficShape> shape) {
  RAC_EXPECT(shape != nullptr, "TrafficModel::add: null shape");
  shapes_.push_back(std::move(shape));
  return *this;
}

TrafficModel& TrafficModel::add_diurnal(const DiurnalParams& params) {
  return add(std::make_shared<const DiurnalShape>(params));
}

TrafficModel& TrafficModel::add_flash_crowd(const FlashCrowdParams& params) {
  return add(std::make_shared<const FlashCrowdShape>(params));
}

TrafficModel& TrafficModel::add_mix_drift(const MixDriftParams& params) {
  return add(std::make_shared<const MixDriftShape>(params));
}

TrafficModel& TrafficModel::add_think_noise(const ThinkNoiseParams& params) {
  return add(std::make_shared<const ThinkNoiseShape>(params));
}

TrafficTarget TrafficModel::target_at(std::int64_t interval,
                                      MixType base_mix) const {
  RAC_EXPECT(interval >= 0, "TrafficModel::target_at: negative interval");
  TrafficTarget target = one_hot_target(base_mix);
  for (const auto& shape : shapes_) {
    shape->apply(interval, target);
  }
  RAC_ENSURE(target.concurrency_scale > 0.0,
             "TrafficModel::target_at: non-positive concurrency scale");
  RAC_ENSURE(target.think_scale > 0.0,
             "TrafficModel::target_at: non-positive think scale");
  return target;
}

}  // namespace rac::workload
