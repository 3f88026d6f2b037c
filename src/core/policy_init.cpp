#include "core/policy_init.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "config/params.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "obs/profiler.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rac::core {

TabulatedSurface::TabulatedSurface(util::QuadraticSurface surface)
    : surface_(std::move(surface)) {
  if (!surface_.fitted()) return;
  if (surface_.dim() != config::kNumParams) {
    throw std::invalid_argument(
        "TabulatedSurface: surface dimension is not the parameter count");
  }
  const auto catalog = config::catalog();
  std::ptrdiff_t size = 0;
  int widest = 0;
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    origin_[i] = size - catalog[i].min;
    size += catalog[i].max - catalog[i].min + 1;
    widest = std::max(widest, catalog[i].max - catalog[i].min);
  }
  std::vector<Feature> columns(static_cast<std::size_t>(size));
  // One feature-map call per offset k fills every parameter's column at
  // min + k; Configuration clamps a narrower parameter to its max, whose
  // entry is already filled and is skipped.
  const auto degree = static_cast<std::size_t>(surface_.per_dim_degree());
  for (int k = 0; k <= widest; ++k) {
    std::array<int, config::kNumParams> values{};
    for (std::size_t i = 0; i < config::kNumParams; ++i) {
      values[i] = catalog[i].min + k;
    }
    const auto x = config::Configuration(values).normalized_values();
    const std::vector<double> phi = surface_.features(x);
    for (std::size_t i = 0; i < config::kNumParams; ++i) {
      if (values[i] > catalog[i].max) continue;
      Feature& f = columns[static_cast<std::size_t>(origin_[i] + values[i])];
      f.z = surface_.standardized(i, x[i]);
      for (std::size_t p = 0; p < degree; ++p) {
        f.power[p] = phi[1 + p * config::kNumParams + i];
      }
    }
  }
  columns_ = std::make_shared<const std::vector<Feature>>(std::move(columns));
}

double TabulatedSurface::predict(const config::Configuration& c) const {
  RAC_EXPECT(fitted(), "TabulatedSurface::predict: surface not fitted");
  const Feature* columns = columns_->data();
  std::array<const Feature*, config::kNumParams> f{};
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    f[i] = columns + (origin_[i] + c.values()[i]);
  }
  // LinearModel::predict's order over QuadraticSurface::features' layout:
  // the intercept, each power over every parameter, then the pairs.
  const double* w = surface_.model().weights().data();
  double y = 0.0;
  y += *w++ * 1.0;
  const auto degree = static_cast<std::size_t>(surface_.per_dim_degree());
  for (std::size_t p = 0; p < degree; ++p) {
    for (std::size_t i = 0; i < config::kNumParams; ++i) {
      y += *w++ * f[i]->power[p];
    }
  }
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    for (std::size_t j = i + 1; j < config::kNumParams; ++j) {
      y += *w++ * (f[i]->z * f[j]->z);
    }
  }
  return y;
}

double TabulatedSurface::magnitude_bound() const {
  if (!fitted()) return 0.0;
  std::array<double, config::kNumParams> z_max{};
  std::array<std::array<double, 3>, config::kNumParams> power_max{};
  const auto catalog = config::catalog();
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    for (int v = catalog[i].min; v <= catalog[i].max; ++v) {
      const Feature& f = (*columns_)[static_cast<std::size_t>(origin_[i] + v)];
      z_max[i] = std::max(z_max[i], std::abs(f.z));
      for (std::size_t p = 0; p < f.power.size(); ++p) {
        power_max[i][p] = std::max(power_max[i][p], std::abs(f.power[p]));
      }
    }
  }
  const double* w = surface_.model().weights().data();
  double bound = std::abs(*w++);
  const auto degree = static_cast<std::size_t>(surface_.per_dim_degree());
  for (std::size_t p = 0; p < degree; ++p) {
    for (std::size_t i = 0; i < config::kNumParams; ++i) {
      bound += std::abs(*w++) * power_max[i][p];
    }
  }
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    for (std::size_t j = i + 1; j < config::kNumParams; ++j) {
      bound += std::abs(*w++) * (z_max[i] * z_max[j]);
    }
  }
  return bound;
}

double InitialPolicy::predict_response_ms(const config::Configuration& c) const {
  if (!surface.fitted()) return sla.reference_response_ms;
  // The surface predicts log(ms); clamp the exponent so a wild
  // extrapolation cannot overflow. The guard is symmetric: an earlier
  // lower bound of 0 pinned every prediction at >= 1 ms, collapsing all
  // sub-millisecond surfaces to the same value (the same bug the library's
  // best_match scoring had).
  return std::exp(std::clamp(surface.predict(c), -12.0, 12.0));
}

double InitialPolicy::predict_reward(const config::Configuration& c) const {
  return reward_from_response(sla, predict_response_ms(c));
}

InitialPolicy learn_initial_policy(env::Environment& environment,
                                   const PolicyInitOptions& options) {
  obs::Registry& registry = obs::registry_or_default(options.registry);
  obs::Counter& c_policies = registry.counter("core.policy_init.policies");
  obs::Counter& c_samples =
      registry.counter("core.policy_init.offline_samples");
  obs::Histogram& h_train = registry.histogram("core.policy_init.train_us",
                                               obs::latency_us_bounds());
  const obs::ProfileScope profile("core.policy_init", h_train);

  InitialPolicy policy;
  policy.context = environment.context();
  policy.sla = options.sla;

  // --- steps 1-2: grouped coarse data collection --------------------------
  const config::ConfigSpace space(options.coarse_levels);
  std::vector<config::Configuration> samples = space.coarse_grid();
  // The running system's defaults are measured anyway before any tuning;
  // include them so the initial policy knows the online starting state.
  samples.push_back(config::Configuration::defaults());

  // Fan the grid out over the pool, one private clone per sample. The
  // clone is reseeded from (environment seed, sample index), so every
  // sample owns a fixed noise stream: the responses -- and everything
  // trained from them -- are bit-identical at any thread count,
  // independent of how many measurements `environment` served before.
  std::vector<double> responses(samples.size(), 0.0);
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : obs::shared_pool();
  // Workers re-anchor at the submitting thread's open phases so the
  // profile tree has the same shape at any thread count.
  const std::vector<std::string> profile_path =
      obs::Profiler::default_profiler().capture_path();
  pool.parallel_for(samples.size(), [&](std::size_t i) {
    const obs::ProfileAnchor anchor(profile_path);
    const obs::ProfileScope sample_profile("policy_init.coarse_sample");
    const auto clone = environment.clone_with_seed(i);
    if (clone == nullptr) {
      throw std::invalid_argument(
          "learn_initial_policy: the environment cannot be cloned, and every "
          "coarse sample is measured on a clone");
    }
    responses[i] = clone->measure(samples[i])  // rac-analyze: allow(unchecked-measure) offline probe
                       .response_ms;
  });

  std::vector<double> features;  // normalized configs, row-major
  features.reserve(samples.size() * config::kNumParams);
  policy.best_sampled_response_ms = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto z = samples[i].normalized_values();
    features.insert(features.end(), z.begin(), z.end());
    if (responses[i] < policy.best_sampled_response_ms) {
      policy.best_sampled_response_ms = responses[i];
      policy.best_sampled = samples[i];
    }
  }

  // --- step 3: polynomial regression over the samples ---------------------
  std::vector<double> log_responses;
  log_responses.reserve(responses.size());
  for (double r : responses) log_responses.push_back(std::log(std::max(r, 1.0)));
  // Cubic per-dimension terms need at least 4 distinct positions per group
  // to be identified; with coarser sampling fall back to quadratic.
  const int surface_degree = options.coarse_levels >= 4 ? 3 : 2;
  const std::size_t surface_width =
      1 + static_cast<std::size_t>(surface_degree) * config::kNumParams +
      config::kNumParams * (config::kNumParams - 1) / 2;
  if (samples.size() < surface_width) {
    throw std::invalid_argument(
        "learn_initial_policy: coarse_levels too small -- " +
        std::to_string(samples.size()) + " samples cannot identify the " +
        std::to_string(surface_width) + "-feature regression surface");
  }
  {
    const obs::ProfileScope fit_profile("policy_init.fit");
    policy.surface = TabulatedSurface(util::QuadraticSurface::fit(
        features, config::kNumParams, log_responses, 1e-4, surface_degree));
    std::vector<double> predicted;
    predicted.reserve(samples.size());
    for (const auto& sample : samples) {
      predicted.push_back(policy.predict_response_ms(sample));
    }
    policy.regression_r2 = util::r_squared(responses, predicted);
  }

  // --- step 4: offline RL over the predicted reward model -----------------
  // Rewards blend the measured samples (exact where we have them) with the
  // regression's predictions elsewhere; trajectories starting from every
  // coarse configuration wander into the fine grid, seeding Q-values in
  // the neighbourhoods the online agent will traverse.
  std::unordered_map<config::Configuration, double, config::ConfigurationHash>
      measured;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    measured.emplace(samples[i], responses[i]);
  }
  const rl::RewardFn reward = [&](const config::Configuration& c) {
    const auto it = measured.find(c);
    const double response =
        it != measured.end() ? it->second : policy.predict_response_ms(c);
    return reward_from_response(options.sla, response);
  };

  util::Rng rng(options.seed);
  {
    const obs::ProfileScope td_profile("policy_init.offline_td");
    rl::batch_train(policy.table, samples, reward, options.offline_td, rng,
                    options.registry);
  }
  c_policies.add(1);
  c_samples.add(samples.size());
  return policy;
}

namespace {

bool spans_equal(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// Bitwise identity of the fitted surfaces: same shape and identical
// coefficients, standardization means, and scales.
bool surfaces_equal(const util::QuadraticSurface& a,
                    const util::QuadraticSurface& b) {
  if (a.fitted() != b.fitted()) return false;
  if (!a.fitted()) return true;
  if (a.dim() != b.dim() || a.per_dim_degree() != b.per_dim_degree()) {
    return false;
  }
  return spans_equal(a.model().weights(), b.model().weights()) &&
         spans_equal(a.means(), b.means()) && spans_equal(a.scales(), b.scales());
}

bool tables_equal(const rl::QTable& a, const rl::QTable& b) {
  if (a.size() != b.size() || a.default_q() != b.default_q()) return false;
  const auto actions = config::ConfigSpace::all_actions();
  for (const auto& state : a.states()) {
    if (!b.contains(state)) return false;
    for (const config::Action action : actions) {
      if (a.q(state, action) != b.q(state, action)) return false;
    }
  }
  return true;
}

}  // namespace

bool exactly_equal(const InitialPolicy& a, const InitialPolicy& b) {
  if (!(a.context == b.context)) return false;
  if (!(a.best_sampled == b.best_sampled)) return false;
  if (a.best_sampled_response_ms != b.best_sampled_response_ms) return false;
  if (a.regression_r2 != b.regression_r2) return false;
  if (!tables_equal(a.table, b.table)) return false;
  return surfaces_equal(a.surface.regression(), b.surface.regression());
}

}  // namespace rac::core
