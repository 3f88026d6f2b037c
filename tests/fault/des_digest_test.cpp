// A digest gate on the discrete-event path: one hardened agent on
// FaultyEnv(SimEnv), run the way the benchmark's des-faults workload runs
// its agents, must emit the same decision trace and write the same last
// checkpoint as the recorded run. Every other digest gate runs the
// analytic twin, so this is the test that notices a change to SimEnv's
// rebuild rules (which population a context switch or a traffic target
// rebuilds, and under which seed).
//
// A change that moves these values on purpose records them again and says
// why.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "env/context.hpp"
#include "env/sim_env.hpp"
#include "fault/fault_env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rac {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(DesFaultsGate, TraceDigestAndLastCheckpointMatchTheRecordedRun) {
  const std::array<env::SystemContext, 3> cycle = {
      env::table2_context(1), env::table2_context(2), env::table2_context(6)};
  obs::Registry registry;

  // A small three-policy library: the gate is about the online loop on the
  // simulator, not about offline training.
  core::PolicyInitOptions init;
  init.coarse_levels = 3;
  init.offline_td = {0.1, 0.9, 0.1, 1e-3, 1, 1};
  init.registry = &registry;
  env::AnalyticEnvOptions offline;
  offline.num_clients = 400;
  offline.noise_sigma = 0.0;
  offline.registry = &registry;
  core::InitialPolicyLibrary library;
  for (const env::SystemContext& context : cycle) {
    env::AnalyticEnv environment(context, offline);
    library.add(core::learn_initial_policy(environment, init));
  }

  // The des-faults environment: 400 browsers on the simulator behind the
  // workload's fault rates.
  env::SimEnvOptions sim;
  sim.num_clients = 400;
  sim.warmup_s = 20.0;
  sim.measure_s = 60.0;
  sim.seed = 17;
  sim.registry = &registry;
  fault::FaultyEnvOptions faults;
  faults.profile.drop_prob = 0.05;
  faults.profile.spike_prob = 0.05;
  faults.profile.freeze_prob = 0.03;
  faults.profile.reconfig_fail_prob = 0.03;
  faults.seed = 23;
  faults.registry = &registry;
  fault::FaultyEnv environment(std::make_unique<env::SimEnv>(cycle[0], sim),
                               faults);

  // The des-faults hardening options.
  core::RacOptions agent_options;
  agent_options.robustness.clamp = true;
  agent_options.robustness.median_of = 3;
  agent_options.robustness.freeze_detect_after = 2;
  agent_options.safe_fallback.enabled = true;
  agent_options.safe_fallback.blowout_factor = 1.5;
  agent_options.registry = &registry;
  core::RacAgent agent(agent_options, library, 0);

  obs::DigestTraceSink sink;
  core::RunOptions run;
  run.sink = &sink;
  run.registry = &registry;
  run.robustness.enabled = true;
  run.robustness.max_retries = 4;
  run.checkpoint_every = 10;
  run.checkpoint_path = ::testing::TempDir() + "/rac_des_gate.rac";
  const core::ContextSchedule schedule = {
      {0, cycle[0]}, {10, cycle[1]}, {20, cycle[2]}};
  core::run_agent(environment, agent, schedule, 30, run);

  std::ifstream in(run.checkpoint_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string checkpoint{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
  in.close();
  std::remove(run.checkpoint_path.c_str());

  // Not vacuous: faults were injected and retried, and the switches to
  // contexts 2 and 6 rebuilt the simulator's browser population.
  EXPECT_GT(registry.counter("core.fault.measure_retries").value(), 0u);
  EXPECT_EQ(registry.counter("core.checkpoint.writes").value(), 3u);
  EXPECT_EQ(environment.context(), cycle[2]);
  EXPECT_EQ(sink.count(), 30u);
  EXPECT_EQ(sink.digest(), "c30-c785df71f2bf81d3");
  EXPECT_EQ(fnv1a(checkpoint), 8372812718721797940ULL)
      << checkpoint.size() << " bytes";
}

}  // namespace
}  // namespace rac
