// Dynamic traffic through the environments: identity with no/empty model
// (the golden-digest compatibility argument), surges as context swaps,
// cursor checkpoint/restore stitching, and the SimEnv population rebuild
// rules.
// The cursor contract every environment shares lives in
// environment_contract_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "config/params.hpp"
#include "env/analytic_env.hpp"
#include "env/sim_env.hpp"
#include "fault/fault_env.hpp"
#include "workload/dynamic.hpp"

namespace rac::env {
namespace {

using config::Configuration;
using workload::MixType;
using workload::TrafficModel;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

AnalyticEnvOptions noiseless() {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  return opt;
}

std::shared_ptr<const TrafficModel> busy_model() {
  auto model = std::make_shared<TrafficModel>();
  model->add_diurnal({32.0, 0.3, 0.0})
      .add_flash_crowd({7, 0.05, 2, 3, 4, 2.0})
      .add_mix_drift({MixType::kShopping, MixType::kOrdering, 8, 10})
      .add_think_noise({11, 0.2});
  return model;
}

// ---- AnalyticEnv ----------------------------------------------------------

TEST(AnalyticTraffic, NoModelAndEmptyModelMeasureBitwiseIdentically) {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.1;  // include the noise stream in the comparison
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  AnalyticEnv plain(ctx, opt);
  AnalyticEnv modeled(ctx, opt);
  modeled.set_traffic_model(std::make_shared<TrafficModel>());
  const Configuration c;
  for (int i = 0; i < 20; ++i) {
    const auto a = plain.measure(c);
    const auto b = modeled.measure(c);
    EXPECT_EQ(bits(a.response_ms), bits(b.response_ms));
    EXPECT_EQ(bits(a.throughput_rps), bits(b.throughput_rps));
  }
  EXPECT_EQ(plain.traffic_interval(), 0u);
  EXPECT_EQ(modeled.traffic_interval(), 20u);  // cursor still advances
}

TEST(AnalyticTraffic, OneHotEvaluateUnderMatchesEvaluateBitwise) {
  for (const MixType mix : workload::kAllMixes) {
    AnalyticEnv env({mix, VmLevel::kLevel2}, noiseless());
    const Configuration c;
    ModelDiagnostics plain_diag;
    ModelDiagnostics under_diag;
    const auto plain = env.evaluate(c, &plain_diag);
    const auto under =
        env.evaluate_under(c, workload::one_hot_target(mix), &under_diag);
    EXPECT_EQ(bits(plain.response_ms), bits(under.response_ms));
    EXPECT_EQ(bits(plain.throughput_rps), bits(under.throughput_rps));
    EXPECT_EQ(bits(plain_diag.db_buffer_mb), bits(under_diag.db_buffer_mb));
  }
}

TEST(AnalyticTraffic, ConcurrencyScaleShiftsTheOperatingPoint) {
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, noiseless());
  const Configuration c;
  workload::TrafficTarget heavy = workload::one_hot_target(MixType::kShopping);
  heavy.concurrency_scale = 2.0;
  workload::TrafficTarget light = workload::one_hot_target(MixType::kShopping);
  light.concurrency_scale = 0.5;
  const double base = env.evaluate(c).response_ms;
  EXPECT_GT(env.evaluate_under(c, heavy).response_ms, base);
  EXPECT_LT(env.evaluate_under(c, light).response_ms, base);
}

TEST(AnalyticTraffic, CursorSeekStitchesAnInterruptedRunBitwise) {
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  const auto model = busy_model();
  const Configuration c;

  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.1;
  AnalyticEnv uninterrupted(ctx, opt);
  uninterrupted.set_traffic_model(model);
  std::vector<double> golden;
  for (int i = 0; i < 24; ++i) {
    golden.push_back(uninterrupted.measure(c).response_ms);
  }

  AnalyticEnv first_half(ctx, opt);
  first_half.set_traffic_model(model);
  std::vector<double> stitched;
  for (int i = 0; i < 9; ++i) {
    stitched.push_back(first_half.measure(c).response_ms);
  }
  const std::uint64_t cursor = first_half.traffic_interval();
  const util::RngState noise = first_half.noise_state();

  AnalyticEnv resumed(ctx, opt);
  resumed.set_traffic_model(model);  // resume re-installs the run input...
  resumed.seek_traffic(cursor);      // ...and seeks to the saved cursor
  resumed.restore_noise_state(noise);
  for (int i = 9; i < 24; ++i) {
    stitched.push_back(resumed.measure(c).response_ms);
  }

  ASSERT_EQ(stitched.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(bits(stitched[i]), bits(golden[i])) << "interval " << i;
  }
}

TEST(AnalyticTraffic, CloneCarriesTheModelAndCursor) {
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  AnalyticEnv env(ctx, noiseless());
  env.set_traffic_model(busy_model());
  const Configuration c;
  for (int i = 0; i < 5; ++i) env.measure(c);

  auto clone_base = env.clone_with_seed(0);
  auto* clone = dynamic_cast<AnalyticEnv*>(clone_base.get());
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->traffic_interval(), 5u);
  EXPECT_EQ(clone->traffic_model(), env.traffic_model());
  // Noiseless: the clone's stream continues bitwise.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(bits(env.measure(c).response_ms),
              bits(clone->measure(c).response_ms));
  }
}

// ---- SimEnv ---------------------------------------------------------------

SimEnvOptions quick_sim() {
  SimEnvOptions opt;
  opt.num_clients = 60;
  opt.warmup_s = 5.0;
  opt.measure_s = 20.0;
  opt.seed = 3;
  return opt;
}

TEST(SimTraffic, NoModelAndEmptyModelMeasureBitwiseIdentically) {
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  SimEnv plain(ctx, quick_sim());
  SimEnv modeled(ctx, quick_sim());
  modeled.set_traffic_model(std::make_shared<TrafficModel>());
  const Configuration c;
  for (int i = 0; i < 3; ++i) {
    const auto a = plain.measure(c);
    const auto b = modeled.measure(c);
    EXPECT_EQ(bits(a.response_ms), bits(b.response_ms));
    EXPECT_EQ(bits(a.throughput_rps), bits(b.throughput_rps));
  }
}

TEST(SimTraffic, ModelDrivenPopulationFollowsTheTarget) {
  const SystemContext ctx{MixType::kShopping, VmLevel::kLevel1};
  auto model = std::make_shared<TrafficModel>();
  model->add_diurnal({8.0, 0.5, 0.0});
  SimEnv env(ctx, quick_sim());
  env.set_traffic_model(model);
  const Configuration c;
  for (int i = 0; i < 4; ++i) {
    const auto sample = env.measure(c);
    EXPECT_GT(sample.throughput_rps, 0.0);
  }
  EXPECT_EQ(env.traffic_interval(), 4u);
}

TEST(SimTraffic, SurgeOverSimEnvRestoresTheScheduledContext) {
  fault::FaultyEnvOptions opt;
  fault::FaultEpisode episode;
  episode.kind = fault::FaultKind::kSurge;
  episode.start_interval = 1;
  episode.duration = 1;
  episode.surge_context = SystemContext{MixType::kOrdering, VmLevel::kLevel3};
  opt.schedule.push_back(episode);
  const SystemContext scheduled{MixType::kShopping, VmLevel::kLevel1};
  fault::FaultyEnv env(std::make_unique<SimEnv>(scheduled, quick_sim()), opt);
  const Configuration c;
  for (int i = 0; i < 3; ++i) env.measure(c);
  EXPECT_EQ(env.context(), scheduled);
  EXPECT_EQ(env.true_history().size(), 3u);
}

TEST(FaultTraffic, SurgeTruthMatchesTheLegacyContextSwap) {
  // A surge must reproduce the "set surge context, measure, restore"
  // numbers of a twin driven by hand, bitwise.
  const SystemContext scheduled{MixType::kShopping, VmLevel::kLevel1};
  const SystemContext surge_ctx{MixType::kOrdering, VmLevel::kLevel3};
  fault::FaultyEnvOptions opt;
  fault::FaultEpisode episode;
  episode.kind = fault::FaultKind::kSurge;
  episode.start_interval = 2;
  episode.duration = 1;
  episode.surge_context = surge_ctx;
  opt.schedule.push_back(episode);

  AnalyticEnvOptions env_opt;
  env_opt.noise_sigma = 0.1;
  fault::FaultyEnv env(std::make_unique<AnalyticEnv>(scheduled, env_opt), opt);

  // Legacy reference computed by hand with a twin environment.
  AnalyticEnv twin(scheduled, env_opt);
  const Configuration c;
  std::vector<double> expected;
  for (int i = 0; i < 5; ++i) {
    if (i == 2) {
      twin.set_context(surge_ctx);
      expected.push_back(twin.measure(c).response_ms);
      twin.set_context(scheduled);
    } else {
      expected.push_back(twin.measure(c).response_ms);
    }
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(bits(env.measure(c).response_ms), bits(expected[static_cast<std::size_t>(i)]))
        << "interval " << i;
  }
  EXPECT_EQ(env.context(), scheduled);
}

TEST(FaultTraffic, SurgeOverSimEnvMatchesAContextSwapBitwise) {
  // A surge over the simulator must draw the same rebuild seeds as a twin
  // driven by hand through set_context(surge), measure,
  // set_context(scheduled): during the surge and after it, for a surge that
  // moves the mix and the level, the mix only, and the level only.
  const SystemContext scheduled{MixType::kShopping, VmLevel::kLevel1};
  const std::array<SystemContext, 3> surges = {{
      {MixType::kOrdering, VmLevel::kLevel3},
      {MixType::kOrdering, VmLevel::kLevel1},
      {MixType::kShopping, VmLevel::kLevel3},
  }};
  Configuration a;
  Configuration b;
  b.set(config::ParamId::kMaxClients, 100);
  for (const SystemContext& surge_ctx : surges) {
    fault::FaultyEnvOptions opt;
    fault::FaultEpisode episode;
    episode.kind = fault::FaultKind::kSurge;
    episode.start_interval = 1;
    episode.duration = 2;
    episode.surge_context = surge_ctx;
    opt.schedule.push_back(episode);
    fault::FaultyEnv env(std::make_unique<SimEnv>(scheduled, quick_sim()),
                         opt);
    SimEnv twin(scheduled, quick_sim());
    for (int i = 0; i < 5; ++i) {
      // Alternate configurations so the surge's rebuilds and the
      // reconfigurations after them both carry a change.
      const Configuration& c = i % 2 == 0 ? a : b;
      const bool surging = i == 1 || i == 2;
      if (surging) twin.set_context(surge_ctx);
      const PerfSample want = twin.measure(c);
      if (surging) twin.set_context(scheduled);
      const PerfSample got = env.measure(c);
      EXPECT_EQ(bits(got.response_ms), bits(want.response_ms))
          << surge_ctx.name() << " interval " << i;
      EXPECT_EQ(bits(got.throughput_rps), bits(want.throughput_rps))
          << surge_ctx.name() << " interval " << i;
    }
    EXPECT_EQ(env.context(), scheduled);
  }
}

}  // namespace
}  // namespace rac::env
