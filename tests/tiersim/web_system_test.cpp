#include "tiersim/web_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "config/space.hpp"
#include "obs/metrics.hpp"

namespace rac::tiersim {
namespace {

using config::Configuration;
using config::ParamId;

SimSetup small_setup(std::uint64_t seed = 1) {
  SimSetup setup;
  setup.num_clients = 120;
  setup.seed = seed;
  return setup;
}

TEST(ThreeTierSystem, ProducesTrafficAndResponses) {
  SystemParams params;
  ThreeTierSystem sys(params, small_setup());
  const auto m = sys.run(30.0, 120.0);
  EXPECT_GT(m.completed, 100u);
  EXPECT_GT(m.mean_response_ms, 0.0);
  EXPECT_GE(m.p95_response_ms, m.mean_response_ms);
  EXPECT_GT(m.throughput_rps, 1.0);
}

TEST(ThreeTierSystem, DeterministicForSameSeed) {
  SystemParams params;
  ThreeTierSystem a(params, small_setup(9));
  ThreeTierSystem b(params, small_setup(9));
  const auto ma = a.run(20.0, 60.0);
  const auto mb = b.run(20.0, 60.0);
  EXPECT_EQ(ma.completed, mb.completed);
  EXPECT_DOUBLE_EQ(ma.mean_response_ms, mb.mean_response_ms);
}

// Each run adds the events it executed to tiersim.events: the DES work
// counter, deterministic for a seed and growing with the simulated window.
TEST(ThreeTierSystem, CountsExecutedEventsInTheRegistry) {
  SystemParams params;
  const auto events = [&](double measure_s) {
    obs::Registry registry;
    SimSetup setup = small_setup(9);
    setup.registry = &registry;
    ThreeTierSystem sys(params, setup);
    sys.run(20.0, measure_s);
    const std::uint64_t first = registry.counter("tiersim.events").value();
    sys.run(20.0, measure_s);
    const std::uint64_t both = registry.counter("tiersim.events").value();
    EXPECT_GT(first, 0u);
    EXPECT_GT(both, first);
    return first;
  };
  const std::uint64_t short_window = events(30.0);
  EXPECT_EQ(events(30.0), short_window);
  // Every completed request takes several events.
  EXPECT_GT(events(90.0), short_window);
}

TEST(ThreeTierSystem, ThroughputTracksOfferedLoad) {
  // In a non-saturated closed system X ~ N / (Z + R).
  SystemParams params;
  auto setup = small_setup(3);
  ThreeTierSystem sys(params, setup);
  const auto m = sys.run(60.0, 200.0);
  const auto profile = workload::blend_browser_profile(
      setup.traffic.mix_weights, setup.traffic.think_scale);
  const double cycle =
      profile.effective_think_mean_s() *
          profile.session_length_mean / (profile.session_length_mean - 1.0) +
      m.mean_response_ms / 1000.0;
  const double expected = setup.num_clients / cycle;
  EXPECT_NEAR(m.throughput_rps, expected, expected * 0.25);
}

TEST(ThreeTierSystem, KeepAliveEnablesConnectionReuse) {
  SystemParams params;
  auto setup = small_setup(5);
  setup.configuration.set(ParamId::kKeepAliveTimeout, 21);
  ThreeTierSystem with_ka(params, setup);
  const auto m_with = with_ka.run(30.0, 150.0);

  auto setup_short = small_setup(5);
  setup_short.configuration.set(ParamId::kKeepAliveTimeout, 1);
  ThreeTierSystem without_ka(params, setup_short);
  const auto m_without = without_ka.run(30.0, 150.0);

  EXPECT_GT(m_with.connection_reuse_rate, 0.5);
  EXPECT_LT(m_without.connection_reuse_rate, m_with.connection_reuse_rate);
}

TEST(ThreeTierSystem, StarvedMaxClientsDegradesResponseTime) {
  SystemParams params;
  auto tuned = small_setup(7);
  tuned.configuration.set(ParamId::kMaxClients, 300);
  ThreeTierSystem good(params, tuned);
  const auto m_good = good.run(40.0, 150.0);

  auto starved = small_setup(7);
  starved.configuration.set(ParamId::kMaxClients, 50);
  ThreeTierSystem bad(params, starved);
  const auto m_bad = bad.run(40.0, 150.0);

  EXPECT_GT(m_bad.mean_response_ms, 2.0 * m_good.mean_response_ms);
  EXPECT_GT(m_bad.mean_accept_wait_ms, m_good.mean_accept_wait_ms);
}

TEST(ThreeTierSystem, SmallerVmIsSlower) {
  SystemParams params;
  auto setup1 = small_setup(11);
  setup1.num_clients = 200;
  setup1.app_vm = {4, 4096.0};
  ThreeTierSystem big(params, setup1);
  const auto m_big = big.run(40.0, 150.0);

  auto setup3 = setup1;
  setup3.app_vm = {2, 2048.0};
  ThreeTierSystem small(params, setup3);
  const auto m_small = small.run(40.0, 150.0);

  EXPECT_GT(m_small.mean_response_ms, m_big.mean_response_ms);
}

TEST(ThreeTierSystem, ReconfigureTakesEffectInPlace) {
  SystemParams params;
  auto setup = small_setup(13);
  setup.configuration.set(ParamId::kMaxClients, 50);
  ThreeTierSystem sys(params, setup);
  const auto m_starved = sys.run(40.0, 100.0);

  Configuration better = setup.configuration;
  better.set(ParamId::kMaxClients, 300);
  sys.reconfigure(better);
  const auto m_better = sys.run(60.0, 100.0);  // let pools grow

  EXPECT_EQ(sys.configuration().value(ParamId::kMaxClients), 300);
  EXPECT_LT(m_better.mean_response_ms, m_starved.mean_response_ms);
}

TEST(ThreeTierSystem, VmReallocationAtRuntime) {
  SystemParams params;
  auto setup = small_setup(17);
  setup.num_clients = 220;
  ThreeTierSystem sys(params, setup);
  const auto before = sys.run(40.0, 100.0);
  sys.set_app_vm({1, 1024.0});
  const auto after = sys.run(40.0, 100.0);
  EXPECT_GT(after.mean_response_ms, before.mean_response_ms);
}

TEST(ThreeTierSystem, SessionRebuildsAppearWithTinyTimeout) {
  SystemParams params;
  auto setup = small_setup(19);
  setup.configuration.set(ParamId::kSessionTimeout, 1);
  ThreeTierSystem sys(params, setup);
  const auto m = sys.run(60.0, 400.0);
  EXPECT_GT(m.session_rebuild_rate, 0.0);
}

TEST(ThreeTierSystem, PoolsRespectConfiguredBounds) {
  SystemParams params;
  auto setup = small_setup(23);
  setup.configuration.set(ParamId::kMaxClients, 100);
  setup.configuration.set(ParamId::kMaxThreads, 60);
  ThreeTierSystem sys(params, setup);
  const auto m = sys.run(60.0, 200.0);
  EXPECT_LE(m.mean_web_workers, 100.0 + 1e-9);
  EXPECT_LE(m.mean_app_threads, 60.0 + 1e-9);
  EXPECT_GT(m.mean_web_workers, 0.0);
}

TEST(ThreeTierSystem, RejectsBadWindowsAndClients) {
  SystemParams params;
  auto setup = small_setup();
  ThreeTierSystem sys(params, setup);
  EXPECT_THROW(sys.run(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(sys.run(0.0, 0.0), std::invalid_argument);
  setup.num_clients = 0;
  EXPECT_THROW(ThreeTierSystem(params, setup), std::invalid_argument);
}

}  // namespace
}  // namespace rac::tiersim
