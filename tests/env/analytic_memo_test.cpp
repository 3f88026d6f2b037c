// AnalyticEnv's measurement memo: measure() must equal the noiseless model
// (evaluate / evaluate_under) times the env's own lognormal noise stream,
// bit for bit, whether a measurement was answered from the memo or solved.
// The sequence below revisits operating points on purpose: repeats of one
// configuration, one-parameter neighbours, context switches, traffic-model
// targets, and a clone's first measurement.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

#include "config/configuration.hpp"
#include "config/params.hpp"
#include "env/analytic_env.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workload/dynamic.hpp"

namespace rac::env {
namespace {

using config::Configuration;
using config::ParamId;
using workload::MixType;
using workload::TrafficTarget;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Replays an AnalyticEnv's measure() stream from outside: a noiseless twin
// (on its own registry, so its evaluations do not count) and an Rng seeded
// like the env's noise stream.
class Oracle {
 public:
  Oracle(const SystemContext& context, AnalyticEnvOptions options)
      : twin_(context, with_registry(options, &twin_registry_)),
        rng_(options.seed),
        sigma_(options.noise_sigma) {}

  void set_context(const SystemContext& context) {
    twin_.set_context(context);
  }

  /// The noiseless sample (no noise drawn).
  PerfSample model(const Configuration& c,
                   const std::optional<TrafficTarget>& target) const {
    return target.has_value() ? twin_.evaluate_under(c, *target)
                              : twin_.evaluate(c);
  }

  /// The next measurement: the model times the next two noise draws.
  PerfSample next(const Configuration& c,
                  const std::optional<TrafficTarget>& target) {
    PerfSample s = model(c, target);
    s.response_ms *= rng_.lognormal_unit(sigma_);
    s.throughput_rps *= rng_.lognormal_unit(sigma_ * 0.5);
    return s;
  }

 private:
  static AnalyticEnvOptions with_registry(AnalyticEnvOptions options,
                                          obs::Registry* registry) {
    options.registry = registry;
    return options;
  }

  obs::Registry twin_registry_;
  AnalyticEnv twin_;
  util::Rng rng_;
  double sigma_;
};

void expect_same(const PerfSample& got, const PerfSample& want,
                 const char* where, int step) {
  EXPECT_EQ(bits(got.response_ms), bits(want.response_ms))
      << where << " step " << step;
  EXPECT_EQ(bits(got.throughput_rps), bits(want.throughput_rps))
      << where << " step " << step;
}

TEST(AnalyticMemo, MeasureMatchesEvaluatePlusNoiseBitwise) {
  obs::Registry registry;
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.1;
  opt.seed = 1234;
  opt.registry = &registry;
  const SystemContext home{MixType::kShopping, VmLevel::kLevel1};
  AnalyticEnv env(home, opt);
  Oracle oracle(home, opt);
  const obs::Counter& measurements =
      registry.counter("env.analytic.measurements");
  const obs::Counter& hits = registry.counter("env.analytic.measure_hits");
  const obs::Counter& evaluations =
      registry.counter("env.analytic.evaluations");

  int step = 0;
  // One plain measurement (no traffic model installed), checked against
  // the oracle.
  const auto check = [&](const Configuration& c) {
    expect_same(env.measure(c), oracle.next(c, std::nullopt), "measure",
                step++);
  };
  // Installs `model` (which rewinds its cursor) and checks `intervals`
  // measurements of `c` under its targets.
  const auto check_model =
      [&](const std::shared_ptr<const workload::TrafficModel>& model,
          const Configuration& c, int intervals) {
        env.set_traffic_model(model);
        for (int i = 0; i < intervals; ++i) {
          const TrafficTarget t = model->target_at(
              static_cast<std::int64_t>(env.traffic_interval()), home.mix);
          expect_same(env.measure(c), oracle.next(c, t), "model", step++);
        }
      };

  // Repeats of one configuration: one solve, then hits.
  const Configuration base;
  for (int i = 0; i < 3; ++i) check(base);
  EXPECT_EQ(measurements.value(), 3u);
  EXPECT_EQ(evaluations.value(), 1u);
  EXPECT_EQ(hits.value(), 2u);

  // Neighbours that differ from a base in one parameter alternate with it,
  // so a key that ignored any one configuration value would serve a wrong
  // sample. A parameter that does not move the model at an operating point
  // cannot expose that there, hence two points (between them every
  // parameter matters). Besides the one-step neighbour, a neighbour sixteen
  // steps away, where the range allows it, lands in the base's memo slot.
  const SystemContext roomy{MixType::kBrowsing, VmLevel::kLevel3};
  const std::array<Configuration, 2> points = {
      Configuration({325, 11, 45, 55, 325, 17, 45, 55}),
      Configuration({50, 1, 5, 15, 50, 1, 5, 15})};
  env.set_context(roomy);
  oracle.set_context(roomy);
  std::array<bool, config::kNumParams> covered{};
  for (const Configuration& point : points) {
    for (const ParamId id : config::kAllParams) {
      for (const int steps : {1, 16}) {
        Configuration neighbour = point;
        neighbour.step(id, steps);
        if (neighbour.value(id) !=
            point.value(id) + steps * config::spec(id).fine_step) {
          continue;  // clamped at the range's end
        }
        if (bits(oracle.model(neighbour, std::nullopt).response_ms) ==
            bits(oracle.model(point, std::nullopt).response_ms)) {
          continue;
        }
        covered[config::index(id)] = true;
        for (int i = 0; i < 2; ++i) {
          check(neighbour);
          check(point);
        }
      }
    }
  }
  for (const ParamId id : config::kAllParams) {
    EXPECT_TRUE(covered[config::index(id)]) << config::name(id);
  }
  env.set_context(home);
  oracle.set_context(home);

  // A context switch between two repeats, over every mix and VM level.
  for (const MixType mix : workload::kAllMixes) {
    for (const VmLevel level : kAllLevels) {
      check(base);
      env.set_context({mix, level});
      oracle.set_context({mix, level});
      check(base);
      check(base);
    }
  }
  env.set_context(home);
  oracle.set_context(home);
  check(base);

  // Traffic models at one configuration, each visited twice with plain
  // measurements between the visits. A twelve-interval diurnal day moves
  // only the targets' concurrency scale, think noise only their think
  // scale. Twelve targets share sixteen slots, so a key that ignored the
  // target, or that field, would serve another target's sample.
  auto day = std::make_shared<workload::TrafficModel>();
  day->add_diurnal({12.0, 0.3, 0.0});
  auto think = std::make_shared<workload::TrafficModel>();
  think->add_think_noise({11, 0.2});
  for (const auto& model : {day, think}) {
    for (int visit = 0; visit < 2; ++visit) {
      check_model(model, base, 12);
      env.set_traffic_model(nullptr);
      check(base);
      check(base);
    }
  }

  // A mix drift moves only the mix weights: one target repeated before the
  // mix drifts, a fresh one each interval while it drifts (eleven share
  // sixteen slots), another repeated once it is over.
  auto model = std::make_shared<workload::TrafficModel>();
  model->add_mix_drift({MixType::kShopping, MixType::kOrdering, 2, 12});
  check_model(model, base, 18);

  // A clone starts cold (its first measurement is solved, although the
  // original holds that key) and draws from its own noise stream.
  std::unique_ptr<Environment> clone = env.clone_with_seed(99);
  AnalyticEnvOptions clone_opt = opt;
  clone_opt.seed = util::derive_seed(opt.seed, 99);
  Oracle clone_oracle(home, clone_opt);
  const std::uint64_t solved_before_clone = evaluations.value();
  for (int i = 0; i < 3; ++i) {
    const TrafficTarget t = model->target_at(
        static_cast<std::int64_t>(clone->traffic_interval()), home.mix);
    expect_same(clone->measure(base), clone_oracle.next(base, t), "clone",
                step++);
  }
  EXPECT_EQ(evaluations.value(), solved_before_clone + 1);

  EXPECT_EQ(measurements.value(), static_cast<std::uint64_t>(step));
  EXPECT_EQ(hits.value() + evaluations.value(), measurements.value());
  EXPECT_GT(hits.value(), measurements.value() / 3);
  EXPECT_LT(hits.value(), measurements.value());
}

TEST(AnalyticMemo, EvaluateNeverReadsOrFillsTheMemo) {
  obs::Registry registry;
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  opt.registry = &registry;
  AnalyticEnv env({MixType::kOrdering, VmLevel::kLevel2}, opt);
  const Configuration c;
  env.evaluate(c);
  env.evaluate(c);
  env.measure(c);
  env.evaluate_under(c, workload::one_hot_target(MixType::kOrdering));
  env.measure(c);
  EXPECT_EQ(registry.counter("env.analytic.evaluations").value(), 4u);
  EXPECT_EQ(registry.counter("env.analytic.measure_hits").value(), 1u);
}

}  // namespace
}  // namespace rac::env
