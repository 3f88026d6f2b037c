// Golden crash-resume test: kill the agent mid-run, restore from the
// checkpoint file, and require the stitched run to be bit-identical to an
// uninterrupted one -- same IterationRecords, same decision-trace JSONL,
// same final learner state. This is the acceptance bar for the
// checkpoint/restore subsystem (and it runs under ASan/UBSan and RAC_AUDIT
// via the regular ctest phases).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "core/policy_init.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "core/snapshot.hpp"
#include "env/analytic_env.hpp"
#include "fault/fault_env.hpp"
#include "obs/trace.hpp"
#include "workload/dynamic.hpp"

namespace rac::core {
namespace {

using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

constexpr int kTotal = 28;
constexpr int kCrashAt = 14;

InitialPolicyLibrary small_library() {
  PolicyInitOptions init;
  init.offline_td.max_sweeps = 60;
  AnalyticEnvOptions offline;
  offline.noise_sigma = 0.0;
  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, offline);
  InitialPolicyLibrary library;
  library.add(learn_initial_policy(env, init));
  return library;
}

ContextSchedule test_schedule() {
  // A context change mid-run exercises the violation detector and policy
  // machinery across the crash boundary.
  return {
      {0, {MixType::kShopping, VmLevel::kLevel1}},
      {12, {MixType::kOrdering, VmLevel::kLevel3}},
  };
}

std::string jsonl(const obs::MemoryTraceSink& sink) {
  std::string out;
  for (const auto& event : sink.events()) {
    out += obs::to_json(event);
    out += '\n';
  }
  return out;
}

std::string final_state(const RacAgent& agent) {
  std::ostringstream os;
  save_agent_snapshot(os, agent.snapshot());
  return os.str();
}

TEST(CheckpointResume, StitchedRunIsBitIdenticalToUninterrupted) {
  const InitialPolicyLibrary library = small_library();
  const RacOptions options;  // paper constants
  AnalyticEnvOptions live_options;
  live_options.seed = 2024;
  const std::string checkpoint_path =
      ::testing::TempDir() + "/rac_checkpoint_resume_test.rac";

  // --- reference: never crashes -----------------------------------------
  AnalyticEnv reference_env({MixType::kShopping, VmLevel::kLevel1},
                            live_options);
  RacAgent reference_agent(options, library, 0);
  obs::MemoryTraceSink reference_sink;
  RunOptions reference_run;
  reference_run.sink = &reference_sink;
  const AgentTrace reference = run_agent(reference_env, reference_agent,
                                         test_schedule(), kTotal,
                                         reference_run);

  // --- leg 1: checkpointing run that "crashes" at kCrashAt ---------------
  AnalyticEnv live_env({MixType::kShopping, VmLevel::kLevel1}, live_options);
  RacAgent doomed_agent(options, library, 0);
  obs::MemoryTraceSink first_sink;
  RunOptions first_leg;
  first_leg.sink = &first_sink;
  first_leg.checkpoint_every = 5;
  first_leg.checkpoint_path = checkpoint_path;
  const AgentTrace before = run_agent(live_env, doomed_agent,
                                      test_schedule(), kCrashAt, first_leg);

  // --- leg 2: fresh agent restored from the checkpoint file --------------
  const RunCheckpoint checkpoint = load_checkpoint_file(checkpoint_path);
  ASSERT_EQ(checkpoint.completed_iterations,
            static_cast<std::uint64_t>(kCrashAt));
  std::istringstream state(checkpoint.agent_state);
  RacAgent resumed_agent(options, library, 0);
  resumed_agent.restore(load_agent_snapshot(state));
  obs::MemoryTraceSink second_sink;
  RunOptions second_leg;
  second_leg.sink = &second_sink;
  second_leg.start_iteration =
      static_cast<int>(checkpoint.completed_iterations);
  second_leg.checkpoint_every = 5;
  second_leg.checkpoint_path = checkpoint_path;
  const AgentTrace after = run_agent(live_env, resumed_agent,
                                     test_schedule(), kTotal, second_leg);

  // --- records: stitched == reference, bitwise ---------------------------
  ASSERT_EQ(before.records.size() + after.records.size(),
            reference.records.size());
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    const IterationRecord& got =
        i < before.records.size() ? before.records[i]
                                  : after.records[i - before.records.size()];
    const IterationRecord& want = reference.records[i];
    EXPECT_EQ(got.iteration, want.iteration);
    EXPECT_EQ(got.configuration, want.configuration);
    EXPECT_EQ(got.response_ms, want.response_ms) << "iteration " << i;
    EXPECT_EQ(got.throughput_rps, want.throughput_rps);
    EXPECT_EQ(got.context, want.context);
  }

  // --- decision trace: identical JSONL, byte for byte --------------------
  EXPECT_EQ(jsonl(first_sink) + jsonl(second_sink), jsonl(reference_sink));

  // --- final learner state: identical serialized snapshots ---------------
  EXPECT_EQ(final_state(resumed_agent), final_state(reference_agent));

  std::remove(checkpoint_path.c_str());
}

// PR 5 extension of the golden: the same crash-resume bar with the
// hardened loop running against an injected-fault environment. The agent
// snapshot carries the robustness state (median window, blowout streak,
// freeze tracker) and the FaultyEnv state rides alongside it, so the
// stitched run -- fresh inner env, restored fault script position -- must
// reproduce the uninterrupted one bit for bit, including the ground-truth
// history the injector records.
TEST(CheckpointResume, InjectedFaultRunStitchesBitIdentically) {
  const InitialPolicyLibrary library = small_library();
  RacOptions options;
  options.robustness.clamp = true;
  options.robustness.floor = -5.0;
  options.robustness.median_of = 3;
  options.robustness.freeze_detect_after = 2;
  options.safe_fallback.enabled = true;
  options.safe_fallback.after_blowouts = 3;
  options.safe_fallback.blowout_factor = 1.5;

  // Noiseless inner env: leg 2 rebuilds a FRESH inner environment, so the
  // only state crossing the crash boundary is the checkpoint + the
  // FaultyEnv state (fault decisions are pure in the interval anyway).
  AnalyticEnvOptions inner;
  inner.noise_sigma = 0.0;
  const auto make_inner = [&inner]() {
    return std::make_unique<AnalyticEnv>(
        SystemContext{MixType::kShopping, VmLevel::kLevel1}, inner);
  };

  fault::FaultyEnvOptions fopt;
  fopt.seed = 99;
  fopt.profile.drop_prob = 0.15;
  fopt.profile.spike_prob = 0.10;
  fopt.profile.spike_multiplier = 30.0;
  fault::FaultEpisode outage;  // a stuck sensor spanning the crash point
  outage.kind = fault::FaultKind::kFreeze;
  outage.start_interval = 12;
  outage.duration = 4;
  fopt.schedule.push_back(outage);

  RunOptions hardened_run;
  hardened_run.robustness.enabled = true;
  hardened_run.robustness.max_retries = 2;

  const std::string checkpoint_path =
      ::testing::TempDir() + "/rac_checkpoint_fault_test.rac";

  // --- reference: never crashes -----------------------------------------
  fault::FaultyEnv reference_env(make_inner(), fopt);
  RacAgent reference_agent(options, library, 0);
  obs::MemoryTraceSink reference_sink;
  RunOptions reference_run = hardened_run;
  reference_run.sink = &reference_sink;
  const AgentTrace reference = run_agent(reference_env, reference_agent,
                                         test_schedule(), kTotal,
                                         reference_run);

  // --- leg 1: crash at kCrashAt, carrying the injector state -------------
  fault::FaultyEnv live_env(make_inner(), fopt);
  RacAgent doomed_agent(options, library, 0);
  obs::MemoryTraceSink first_sink;
  RunOptions first_leg = hardened_run;
  first_leg.sink = &first_sink;
  first_leg.checkpoint_every = 5;
  first_leg.checkpoint_path = checkpoint_path;
  const AgentTrace before = run_agent(live_env, doomed_agent,
                                      test_schedule(), kCrashAt, first_leg);
  const fault::FaultyEnvState env_state = live_env.state();

  // --- leg 2: fresh env + restored fault state, restored agent -----------
  const RunCheckpoint checkpoint = load_checkpoint_file(checkpoint_path);
  ASSERT_EQ(checkpoint.completed_iterations,
            static_cast<std::uint64_t>(kCrashAt));
  fault::FaultyEnv resumed_env(make_inner(), fopt);
  resumed_env.restore(env_state);
  std::istringstream state(checkpoint.agent_state);
  RacAgent resumed_agent(options, library, 0);
  resumed_agent.restore(load_agent_snapshot(state));
  obs::MemoryTraceSink second_sink;
  RunOptions second_leg = hardened_run;
  second_leg.sink = &second_sink;
  second_leg.start_iteration =
      static_cast<int>(checkpoint.completed_iterations);
  const AgentTrace after = run_agent(resumed_env, resumed_agent,
                                     test_schedule(), kTotal, second_leg);

  // --- records, decision trace, learner state: all bitwise ---------------
  ASSERT_EQ(before.records.size() + after.records.size(),
            reference.records.size());
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    const IterationRecord& got =
        i < before.records.size() ? before.records[i]
                                  : after.records[i - before.records.size()];
    const IterationRecord& want = reference.records[i];
    EXPECT_EQ(got.iteration, want.iteration);
    EXPECT_EQ(got.configuration, want.configuration);
    EXPECT_EQ(got.response_ms, want.response_ms) << "iteration " << i;
    EXPECT_EQ(got.throughput_rps, want.throughput_rps);
  }
  EXPECT_EQ(jsonl(first_sink) + jsonl(second_sink), jsonl(reference_sink));
  EXPECT_EQ(final_state(resumed_agent), final_state(reference_agent));

  // --- ground truth: the injector's true history stitches bitwise too ----
  ASSERT_EQ(live_env.true_history().size() +
                resumed_env.true_history().size(),
            reference_env.true_history().size());
  for (std::size_t i = 0; i < reference_env.true_history().size(); ++i) {
    const env::PerfSample& got =
        i < live_env.true_history().size()
            ? live_env.true_history()[i]
            : resumed_env.true_history()[i - live_env.true_history().size()];
    EXPECT_EQ(got.response_ms, reference_env.true_history()[i].response_ms)
        << "true interval " << i;
    EXPECT_EQ(got.throughput_rps,
              reference_env.true_history()[i].throughput_rps);
  }

  std::remove(checkpoint_path.c_str());
}

// The same bar under dynamic traffic: a day with a diurnal swing, a flash
// crowd and a mix drift, checkpointed by run_agent and resumed into a
// *fresh* environment. The traffic model is run input, so the resumed run
// re-installs it and seeks the checkpoint's cursor. Noise is off because a
// fresh environment's noise stream starts over.
TEST(CheckpointResume, TrafficDayResumesIntoAFreshEnvironment) {
  const InitialPolicyLibrary library = small_library();
  const RacOptions options;
  const SystemContext context{MixType::kShopping, VmLevel::kLevel1};
  const ContextSchedule schedule = {{0, context}};
  auto model = std::make_shared<workload::TrafficModel>();
  model->add_diurnal({24.0, 0.3, 0.0})
      .add_flash_crowd({7, 0.1, 2, 3, 4, 1.5})
      .add_mix_drift({MixType::kShopping, MixType::kOrdering, 10, 8})
      .add_think_noise({11, 0.1});
  AnalyticEnvOptions noiseless;
  noiseless.noise_sigma = 0.0;
  const std::string checkpoint_path =
      ::testing::TempDir() + "/rac_checkpoint_traffic_test.rac";

  // --- reference: never crashes -----------------------------------------
  AnalyticEnv reference_env(context, noiseless);
  reference_env.set_traffic_model(model);
  RacAgent reference_agent(options, library, 0);
  obs::MemoryTraceSink reference_sink;
  RunOptions reference_run;
  reference_run.sink = &reference_sink;
  run_agent(reference_env, reference_agent, schedule, kTotal, reference_run);

  // --- leg 1: checkpointing run that "crashes" at kCrashAt ---------------
  AnalyticEnv doomed_env(context, noiseless);
  doomed_env.set_traffic_model(model);
  RacAgent doomed_agent(options, library, 0);
  obs::MemoryTraceSink first_sink;
  RunOptions first_leg;
  first_leg.sink = &first_sink;
  first_leg.checkpoint_every = 5;
  first_leg.checkpoint_path = checkpoint_path;
  run_agent(doomed_env, doomed_agent, schedule, kCrashAt, first_leg);

  const RunCheckpoint checkpoint = load_checkpoint_file(checkpoint_path);
  ASSERT_EQ(checkpoint.completed_iterations,
            static_cast<std::uint64_t>(kCrashAt));
  // One measurement per interval, so the cursor is the interval count.
  ASSERT_EQ(checkpoint.traffic_interval, static_cast<std::uint64_t>(kCrashAt));

  // --- leg 2: fresh environment and agent --------------------------------
  AnalyticEnv resumed_env(context, noiseless);
  resumed_env.set_traffic_model(model);
  resumed_env.seek_traffic(checkpoint.traffic_interval);
  RacAgent resumed_agent(options, library, 0);
  std::istringstream state(checkpoint.agent_state);
  resumed_agent.restore(load_agent_snapshot(state));
  obs::MemoryTraceSink second_sink;
  RunOptions second_leg;
  second_leg.sink = &second_sink;
  second_leg.start_iteration =
      static_cast<int>(checkpoint.completed_iterations);
  run_agent(resumed_env, resumed_agent, schedule, kTotal, second_leg);

  EXPECT_EQ(resumed_env.traffic_interval(), reference_env.traffic_interval());
  EXPECT_EQ(jsonl(first_sink) + jsonl(second_sink), jsonl(reference_sink));
  EXPECT_EQ(final_state(resumed_agent), final_state(reference_agent));
  std::remove(checkpoint_path.c_str());
}

TEST(CheckpointResume, CheckpointFileIsRewrittenAsTheRunProgresses) {
  const InitialPolicyLibrary library = small_library();
  const RacOptions options;
  AnalyticEnvOptions live_options;
  live_options.seed = 7;
  const std::string checkpoint_path =
      ::testing::TempDir() + "/rac_checkpoint_progress_test.rac";

  AnalyticEnv env({MixType::kShopping, VmLevel::kLevel1}, live_options);
  RacAgent agent(options, library, 0);
  RunOptions run;
  run.checkpoint_every = 4;
  run.checkpoint_path = checkpoint_path;
  run_agent(env, agent, {}, 10, run);

  // The final write happens at the end of the run even though 10 is not a
  // multiple of 4, so a clean stop never loses trailing intervals.
  const RunCheckpoint last = load_checkpoint_file(checkpoint_path);
  EXPECT_EQ(last.completed_iterations, 10u);
  std::istringstream state(last.agent_state);
  RacAgent verifier(options, library, 0);
  EXPECT_NO_THROW(verifier.restore(load_agent_snapshot(state)));
  std::remove(checkpoint_path.c_str());
}

}  // namespace
}  // namespace rac::core
