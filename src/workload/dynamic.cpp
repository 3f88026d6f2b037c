#include "workload/dynamic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <numbers>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"
#include "util/lineio.hpp"
#include "util/rng.hpp"

namespace rac::workload {

namespace {

// Per-kind salts folded into the per-interval seed derivation so two
// stochastic shapes accidentally sharing a seed still draw independent
// scripts (the FaultyEnv per-(interval, kind) idiom).
constexpr std::uint64_t kFlashSalt = 0xF1A5'0000'0001ULL;
constexpr std::uint64_t kThinkSalt = 0xF1A5'0000'0003ULL;

// A practical ceiling on deserialized shape counts: a model is authored by
// hand or by a bench, never generated at scale, so a huge count is corrupt
// data rather than a real model.
constexpr std::uint64_t kMaxShapes = 4096;

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

MixType dominant_mix(const TrafficTarget& target) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kNumMixes; ++i) {
    if (target.mix_weights[i] > target.mix_weights[best]) best = i;
  }
  return kAllMixes[best];
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

void DiurnalShape::save(std::ostream& os) const {
  os << kind() << ' ' << util::format_double(params_.period_intervals) << ' '
     << util::format_double(params_.amplitude) << ' '
     << util::format_double(params_.phase_intervals) << "\n";
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

void FlashCrowdShape::save(std::ostream& os) const {
  os << kind() << ' ' << util::format_u64(params_.seed) << ' '
     << util::format_double(params_.onset_prob) << ' '
     << util::format_i64(params_.ramp_intervals) << ' '
     << util::format_i64(params_.hold_intervals) << ' '
     << util::format_i64(params_.decay_intervals) << ' '
     << util::format_double(params_.peak_scale) << "\n";
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

void MixDriftShape::save(std::ostream& os) const {
  os << kind() << ' ' << mix_name(params_.from) << ' '
     << mix_name(params_.to) << ' '
     << util::format_i64(params_.start_interval) << ' '
     << util::format_i64(params_.duration_intervals) << "\n";
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

void ThinkNoiseShape::save(std::ostream& os) const {
  os << kind() << ' ' << util::format_u64(params_.seed) << ' '
     << util::format_double(params_.sigma) << "\n";
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

void TrafficModel::save(std::ostream& os) const {
  os << "traffic-model v1\n";
  os << "shapes " << util::format_u64(shapes_.size()) << "\n";
  for (const auto& shape : shapes_) {
    shape->save(os);
  }
  os << "end\n";
}

TrafficModel TrafficModel::load(std::istream& is) {
  constexpr const char* kWhat = "traffic-model";
  util::expect_token(is, "traffic-model", kWhat);
  const std::string version = util::read_token(is, kWhat);
  if (version != "v1") {
    throw std::runtime_error("traffic-model: unsupported version " + version);
  }
  util::expect_token(is, "shapes", kWhat);
  const std::uint64_t count = util::read_u64(is, kWhat);
  if (count > kMaxShapes) {
    throw std::runtime_error("traffic-model: implausible shape count");
  }
  TrafficModel model;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string kind = util::read_token(is, kWhat);
    if (kind == "diurnal") {
      DiurnalParams p;
      p.period_intervals = util::read_double(is, kWhat);
      p.amplitude = util::read_double(is, kWhat);
      p.phase_intervals = util::read_double(is, kWhat);
      model.add_diurnal(p);
    } else if (kind == "flash-crowd") {
      FlashCrowdParams p;
      p.seed = util::read_u64(is, kWhat);
      p.onset_prob = util::read_double(is, kWhat);
      p.ramp_intervals = util::read_int(is, kWhat);
      p.hold_intervals = util::read_int(is, kWhat);
      p.decay_intervals = util::read_int(is, kWhat);
      p.peak_scale = util::read_double(is, kWhat);
      model.add_flash_crowd(p);
    } else if (kind == "mix-drift") {
      MixDriftParams p;
      p.from = parse_mix_name(util::read_token(is, kWhat));
      p.to = parse_mix_name(util::read_token(is, kWhat));
      p.start_interval = util::read_i64(is, kWhat);
      p.duration_intervals = util::read_int(is, kWhat);
      model.add_mix_drift(p);
    } else if (kind == "think-noise") {
      ThinkNoiseParams p;
      p.seed = util::read_u64(is, kWhat);
      p.sigma = util::read_double(is, kWhat);
      model.add_think_noise(p);
    } else {
      throw std::runtime_error("traffic-model: unknown shape kind '" + kind +
                               "'");
    }
  }
  util::expect_token(is, "end", kWhat);
  return model;
}

}  // namespace rac::workload
