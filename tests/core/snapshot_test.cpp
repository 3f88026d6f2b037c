#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>

#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "env/context.hpp"
#include "obs/process_stats.hpp"
#include "util/lineio.hpp"
#include "util/rng.hpp"

namespace rac::core {
namespace {

using config::Configuration;
using config::ParamId;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

// A snapshot with every field set to a distinctive, non-default value.
AgentSnapshot sample_snapshot() {
  AgentSnapshot s;
  AgentHyperparameters& p = s.hyperparameters;
  p.sla_reference_response_ms = 750.0;
  p.online_epsilon = 0.07;
  p.online_td = {0.2, 0.8, 0.15, 1e-4, 6, 25};
  p.violation_window = 8;
  p.violation_threshold = 0.4;
  p.violation_consecutive_limit = 4;
  p.violation_min_history = 2;
  p.online_learning = false;
  p.adaptive_policy_switching = false;
  p.robustness_clamp = true;
  p.robustness_floor = -3.5;
  p.robustness_median_of = 3;
  p.robustness_freeze_after = 2;
  p.safe_fallback_enabled = true;
  p.safe_fallback_after = 4;
  p.safe_fallback_factor = 2.5;
  p.seed = 4242;
  p.experience_blend = 0.35;
  s.library_size = 3;
  s.active_policy_context = "ordering/Level-3";
  s.detector_history = {100.0, 120.0, 95.5};
  s.detector_consecutive = 2;
  s.detector_last_violation = true;

  AgentState& state = s.state;
  state.active_policy = 2;
  Configuration visited;
  visited.set(ParamId::kMaxClients, 250);
  Configuration neighbor = visited;
  neighbor.set(ParamId::kKeepAliveTimeout, 9);
  state.qtable.set_default_q(-0.25);
  state.qtable.set_q(visited, config::Action(3), 1.0 / 3.0);
  state.qtable.set_q(neighbor, config::Action(0), -2.75);
  state.qtable.set_q(neighbor, config::Action(16), 0.5);
  state.experience = rl::ExperienceStore(0.35);
  state.experience.restore({{Configuration{}, {123.456, 4}},
                            {visited, {88.25, 1}}});
  util::Rng rng(77);
  rng.normal();  // populate the Box-Muller cache
  state.rng = rng;
  state.current = visited;
  state.first_decide = false;
  state.policy_switches = 5;
  state.last_selection = {config::Action(7), true, -1.5};
  state.last_policy_switched = true;
  state.last_reward = 0.625;
  state.calibration_log.add(0.125);
  state.recent_responses = {310.5, 2400.25};
  state.blowout_streak = 2;
  state.last_safe_fallback = true;
  state.safe_fallbacks = 3;
  state.freeze_has_last = true;
  state.freeze_last_raw = 2400.25;
  state.freeze_repeats = 1;
  return s;
}

std::string serialized(const AgentSnapshot& s) {
  std::ostringstream os;
  save_agent_snapshot(os, s);
  return os.str();
}

// Replaces the first occurrence of `from` in `text`, which must hold it.
std::string patched(std::string text, const std::string& from,
                    const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(AgentSnapshotIo, RoundTripPreservesEveryField) {
  const AgentSnapshot s = sample_snapshot();
  const std::string bytes = serialized(s);
  std::istringstream is(bytes);
  const AgentSnapshot r = load_agent_snapshot(is);

  EXPECT_EQ(r.hyperparameters, s.hyperparameters);
  EXPECT_EQ(r.library_size, s.library_size);
  EXPECT_EQ(r.active_policy_context, s.active_policy_context);
  EXPECT_EQ(r.detector_history, s.detector_history);
  EXPECT_EQ(r.detector_consecutive, s.detector_consecutive);
  EXPECT_EQ(r.detector_last_violation, s.detector_last_violation);

  const AgentState& a = s.state;
  const AgentState& b = r.state;
  EXPECT_EQ(b.active_policy, a.active_policy);
  EXPECT_EQ(b.qtable.size(), a.qtable.size());
  EXPECT_EQ(b.qtable.default_q(), a.qtable.default_q());
  for (const Configuration& state : a.qtable.states()) {
    EXPECT_TRUE(b.qtable.contains(state));
    for (const config::Action action : config::ConfigSpace::all_actions()) {
      EXPECT_EQ(b.qtable.q(state, action), a.qtable.q(state, action));
    }
  }
  EXPECT_EQ(b.experience.blend(), a.experience.blend());
  ASSERT_EQ(b.experience.size(), a.experience.size());
  for (std::size_t i = 0; i < a.experience.size(); ++i) {
    const rl::ExperienceEntry& x = a.experience.entries()[i];
    const rl::ExperienceEntry& y = b.experience.entries()[i];
    EXPECT_EQ(y.configuration, x.configuration);
    EXPECT_EQ(y.observation.response_ms, x.observation.response_ms);
    EXPECT_EQ(y.observation.count, x.observation.count);
  }
  EXPECT_EQ(b.rng.state().words, a.rng.state().words);
  EXPECT_EQ(b.rng.state().has_cached_normal, a.rng.state().has_cached_normal);
  EXPECT_EQ(b.rng.state().cached_normal, a.rng.state().cached_normal);
  EXPECT_EQ(b.current, a.current);
  EXPECT_EQ(b.first_decide, a.first_decide);
  EXPECT_EQ(b.policy_switches, a.policy_switches);
  EXPECT_EQ(b.last_selection.action, a.last_selection.action);
  EXPECT_EQ(b.last_selection.explored, a.last_selection.explored);
  EXPECT_EQ(b.last_selection.q_value, a.last_selection.q_value);
  EXPECT_EQ(b.last_policy_switched, a.last_policy_switched);
  EXPECT_EQ(b.last_reward, a.last_reward);
  EXPECT_EQ(b.calibration_log.empty(), a.calibration_log.empty());
  EXPECT_EQ(b.calibration_log.value(), a.calibration_log.value());
  EXPECT_EQ(b.calibration_log.alpha(), a.calibration_log.alpha());
  EXPECT_EQ(b.recent_responses, a.recent_responses);
  EXPECT_EQ(b.blowout_streak, a.blowout_streak);
  EXPECT_EQ(b.last_safe_fallback, a.last_safe_fallback);
  EXPECT_EQ(b.safe_fallbacks, a.safe_fallbacks);
  EXPECT_EQ(b.freeze_has_last, a.freeze_has_last);
  EXPECT_EQ(b.freeze_last_raw, a.freeze_last_raw);
  EXPECT_EQ(b.freeze_repeats, a.freeze_repeats);

  // Writing what was read reproduces the bytes.
  EXPECT_EQ(serialized(r), bytes);
}

TEST(AgentSnapshotIo, NoActivePolicyRoundTrips) {
  AgentSnapshot s;  // defaults: no active policy, empty everything
  s.library_size = 0;
  std::istringstream is(serialized(s));
  const AgentSnapshot r = load_agent_snapshot(is);
  EXPECT_FALSE(r.state.active_policy.has_value());
  EXPECT_TRUE(r.active_policy_context.empty());
  EXPECT_TRUE(r.state.experience.empty());
  EXPECT_TRUE(r.detector_history.empty());
}

TEST(AgentSnapshotIo, RejectsForeignMagicAndVersion) {
  std::istringstream foreign("not-a-snapshot v1\n");
  EXPECT_THROW(load_agent_snapshot(foreign), std::runtime_error);
  std::istringstream unsupported("rac-agent-snapshot v9\n");
  EXPECT_THROW(load_agent_snapshot(unsupported), std::runtime_error);

  // A well-formed v1 snapshot (no robustness lines) is no longer read.
  std::string v1;
  std::istringstream lines(serialized(sample_snapshot()));
  for (std::string line; std::getline(lines, line);) {
    if (line == "rac-agent-snapshot v2") line = "rac-agent-snapshot v1";
    for (const char* v2_only : {"robustness ", "recent ", "fallback ",
                                "freeze "}) {
      if (line.rfind(v2_only, 0) == 0) line.clear();
    }
    if (!line.empty()) v1 += line + "\n";
  }
  std::istringstream old_version(v1);
  EXPECT_THROW(load_agent_snapshot(old_version), std::runtime_error);
}

TEST(AgentSnapshotIo, RejectsTruncatedInput) {
  const std::string text = serialized(sample_snapshot());
  for (const double fraction : {0.1, 0.5, 0.9}) {
    std::istringstream is(
        text.substr(0, static_cast<std::size_t>(text.size() * fraction)));
    EXPECT_THROW(load_agent_snapshot(is), std::runtime_error) << fraction;
  }
}

TEST(AgentSnapshotIo, RejectsCommaDecimalValue) {
  // The locale bug this PR removes: "1,5" must be malformed, not "1".
  std::string text = serialized(sample_snapshot());
  const std::string key = "online_epsilon ";
  const std::size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = text.find('\n', pos);
  text.replace(pos + key.size(), eol - pos - key.size(), "1,5");
  std::istringstream is(text);
  EXPECT_THROW(load_agent_snapshot(is), std::runtime_error);
}

TEST(AgentSnapshotIo, RejectsCorruptFlagsAndRanges) {
  // Boolean flag outside {0, 1}.
  std::string text = serialized(sample_snapshot());
  const std::size_t flag = text.find("first_decide 0");
  ASSERT_NE(flag, std::string::npos);
  std::string bad_flag = text;
  bad_flag.replace(flag, std::string("first_decide 0").size(),
                   "first_decide 2");
  std::istringstream flag_is(bad_flag);
  EXPECT_THROW(load_agent_snapshot(flag_is), std::runtime_error);

  // Action id outside the action set.
  const std::size_t sel = text.find("last_selection 7");
  ASSERT_NE(sel, std::string::npos);
  std::string bad_action = text;
  bad_action.replace(sel, std::string("last_selection 7").size(),
                     "last_selection 99");
  std::istringstream action_is(bad_action);
  EXPECT_THROW(load_agent_snapshot(action_is), std::runtime_error);

  // An active policy index must carry a context token.
  const std::size_t ap = text.find("active_policy 2 ordering/Level-3");
  ASSERT_NE(ap, std::string::npos);
  std::string bad_policy = text;
  bad_policy.replace(ap, std::string("active_policy 2 ordering/Level-3").size(),
                     "active_policy 2 -");
  std::istringstream policy_is(bad_policy);
  EXPECT_THROW(load_agent_snapshot(policy_is), std::runtime_error);
}

// Counts are unchecked input. A count far past the entries present must
// fail as malformed input, not size an allocation (std::bad_alloc,
// std::length_error).
TEST(AgentSnapshotIo, HugeEntryCountsAreMalformedInputNotAllocations) {
  const std::string text = serialized(sample_snapshot());
  for (const std::string count : {"1000000000000", "18446744073709551615"}) {
    SCOPED_TRACE(count);
    std::istringstream experience(patched(text, "\nexperience 2\n",
                                          "\nexperience " + count + "\n"));
    EXPECT_THROW(load_agent_snapshot(experience), std::runtime_error);
    std::istringstream detector(
        patched(text, "\ndetector 2 1 3 ", "\ndetector 2 1 " + count + " "));
    EXPECT_THROW(load_agent_snapshot(detector), std::runtime_error);
  }
}

// observe() puts only finite, non-negative samples into the median
// window. A window holding anything else used to load, restore, and then
// throw from ExperienceStore::record in the middle of the next interval.
TEST(AgentSnapshotIo, RejectsAMedianWindowNoAgentCouldHold) {
  const std::string text = serialized(sample_snapshot());
  const std::string window = "recent 2 " + util::format_double(310.5) + " " +
                             util::format_double(2400.25) + "\n";
  ASSERT_NE(text.find(window), std::string::npos);
  for (const std::string bad :
       {"recent 2 nan -5\n", "recent 1 nan\n", "recent 1 inf\n",
        "recent 1 -5\n", "recent 4 1 2 3 4\n"}) {
    SCOPED_TRACE(bad);
    std::istringstream is(patched(text, window, bad));
    EXPECT_THROW(load_agent_snapshot(is), std::runtime_error);
  }
}

// Every value no agent could hold is malformed input, reported as
// std::runtime_error by the reader, never as a restore-time
// std::invalid_argument (which means "the wrong agent").
TEST(AgentSnapshotIo, RejectsValuesNoAgentCouldHold) {
  const AgentSnapshot s = sample_snapshot();
  const std::string text = serialized(s);
  const auto rejects = [](const std::string& bad) {
    std::istringstream is(bad);
    EXPECT_THROW(load_agent_snapshot(is), std::runtime_error);
  };
  // An all-zero RNG, the one state xoshiro cannot leave.
  const std::size_t rng_at = text.find("\nrng ") + 1;
  rejects(patched(text, text.substr(rng_at, text.find('\n', rng_at) - rng_at),
                  "rng 0 0 0 0 0 0"));
  // A non-finite calibration average.
  rejects(patched(text, "calibration 1 " + util::format_double(0.125),
                  "calibration 1 inf"));
  // The detector streak at its limit (reaching it resets the detector), a
  // violation flag without a streak, a window past n, a dropped sample.
  rejects(patched(text, "\ndetector 2 1 ", "\ndetector 4 1 "));
  rejects(patched(text, "\ndetector 2 1 ", "\ndetector 0 1 "));
  rejects(patched(text, "\ndetector 2 1 3 ",
                  "\ndetector 2 1 9 1 1 1 1 1 1 1 1 "));
  rejects(patched(text, "\ndetector 2 1 3 ", "\ndetector 2 1 3 nan "));
  // A never-counted or a duplicate experience entry.
  rejects(patched(text, " " + util::format_double(123.456) + " 4\n",
                  " " + util::format_double(123.456) + " 0\n"));
  const auto row = [](const Configuration& c) {
    std::ostringstream os;
    config::write_configuration(os, c);
    return "\n" + os.str() + " " + util::format_double(88.25);
  };
  rejects(patched(text, row(s.state.current), row(Configuration{})));
  // A negative counter, a frozen sample the agent would have dropped, and
  // a context token without an active policy.
  rejects(patched(text, "policy_switches 5", "policy_switches -5"));
  rejects(patched(text, "freeze 1 ", "freeze 1 -"));
  rejects(patched(text, "active_policy 2 ordering/Level-3",
                  "active_policy -1 ordering/Level-3"));
  // A counter the agent counts up, at its type's maximum: the next
  // increment would overflow it.
  rejects(patched(text, "policy_switches 5", "policy_switches 2147483647"));
  rejects(patched(text, "\nfallback 2 1 3\n", "\nfallback 2 1 2147483647\n"));
  rejects(patched(text, "\nfallback 2 1 3\n", "\nfallback 2147483647 1 3\n"));
  const std::string freeze = "freeze 1 " + util::format_double(2400.25);
  rejects(patched(text, freeze + " 1\n", freeze + " 2147483647\n"));
  rejects(patched(text, " " + util::format_double(123.456) + " 4\n",
                  " " + util::format_double(123.456) +
                      " 18446744073709551615\n"));
  // The same file with its values intact loads.
  std::istringstream is(text);
  EXPECT_NO_THROW(load_agent_snapshot(is));
}

// --- checkpoint files -------------------------------------------------------

TEST(CheckpointIo, RoundTripPreservesOpaqueStateBytes) {
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_rt.rac";
  RunCheckpoint original;
  original.completed_iterations = 17;
  // Deliberately awkward payload: newlines, token-like words, no trailer.
  original.agent_state = "line one\nend\nstates 3\n  spaced tokens ";
  write_checkpoint_file(path, original);
  const RunCheckpoint loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded.completed_iterations, original.completed_iterations);
  EXPECT_EQ(loaded.agent_state, original.agent_state);
  std::remove(path.c_str());
}

TEST(CheckpointIo, TrafficCursorRoundTrips) {
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_tc.rac";
  RunCheckpoint original;
  original.completed_iterations = 9;
  original.traffic_interval = 42;  // v2: mid-day traffic-model cursor
  original.agent_state = "state";
  write_checkpoint_file(path, original);
  const RunCheckpoint loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded.traffic_interval, 42u);
  EXPECT_EQ(loaded.completed_iterations, 9u);
  std::remove(path.c_str());
}

TEST(CheckpointIo, MissingFileThrowsIosFailure) {
  EXPECT_THROW(load_checkpoint_file("/nonexistent/dir/cp.rac"),
               std::ios_base::failure);
}

TEST(CheckpointIo, RejectsTrailingGarbageAndTruncation) {
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_bad.rac";
  RunCheckpoint checkpoint;
  checkpoint.completed_iterations = 3;
  checkpoint.agent_state = "opaque agent state";
  write_checkpoint_file(path, checkpoint);

  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  util::atomic_write_file(path, text + "extra\n");
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);

  // A byte count larger than the remaining file is a truncated state.
  util::atomic_write_file(path, text.substr(0, text.size() - 10));
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);

  // A well-formed v1 checkpoint (no traffic line) is no longer read.
  util::atomic_write_file(
      path, "rac-checkpoint v1\ncompleted 7\nagent_state 6\nopaque\nend\n");
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointIo, AgentStateLongerThanTheFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_huge.rac";
  for (const std::string count : {"1000000000000", "18446744073709551615"}) {
    SCOPED_TRACE(count);
    util::atomic_write_file(path, "rac-checkpoint v2\ncompleted 1\ntraffic 0\n"
                                  "agent_state " + count + "\nopaque\nend\n");
    EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

// The traffic model indexes intervals as std::int64_t. A cursor past that
// range used to load, seek, and then throw a contract violation from the
// model at the next measurement of a resumed run.
TEST(CheckpointIo, RejectsATrafficCursorPastTheModelsRange) {
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_cur.rac";
  for (const std::string cursor :
       {"9223372036854775808", "18446744073709551615", "-1"}) {
    SCOPED_TRACE(cursor);
    util::atomic_write_file(path, "rac-checkpoint v2\ncompleted 1\ntraffic " +
                                      cursor +
                                      "\nagent_state 6\nopaque\nend\n");
    EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
  }
  util::atomic_write_file(path, "rac-checkpoint v2\ncompleted 1\ntraffic "
                                "9223372036854775806\nagent_state 6\nopaque"
                                "\nend\n");
  EXPECT_EQ(load_checkpoint_file(path).traffic_interval,
            9223372036854775806u);
  std::remove(path.c_str());
}

// The range's last value is malformed too: a resumed run's first interval
// advances the cursor to 2^63, and its second used to throw a contract
// violation from the model ("negative interval").
TEST(CheckpointIo, RejectsATrafficCursorAtItsTypesMaximum) {
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_max.rac";
  util::atomic_write_file(path, "rac-checkpoint v2\ncompleted 1\ntraffic "
                                "9223372036854775807\nagent_state 6\nopaque"
                                "\nend\n");
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
  std::remove(path.c_str());
}

// --- RacAgent::save_state ---------------------------------------------------

// save_state serializes the live table; it must write exactly the bytes of
// the value snapshot, here for an agent whose table was re-seeded by a
// policy switch and then refined online: an overlay over the library table
// holding rows of its own, copied from the base or new.
TEST(RacAgentCheckpoint, SaveStateWritesTheSnapshotBytesAfterAPolicySwitch) {
  PolicyInitOptions init;
  init.offline_td.max_sweeps = 60;
  env::AnalyticEnvOptions offline;
  offline.noise_sigma = 0.0;
  const SystemContext shopping{MixType::kShopping, VmLevel::kLevel1};
  const SystemContext ordering{MixType::kOrdering, VmLevel::kLevel3};
  InitialPolicyLibrary library;
  for (const SystemContext& context : {shopping, ordering}) {
    env::AnalyticEnv env(context, offline);
    library.add(learn_initial_policy(env, init));
  }
  RacOptions options;
  options.seed = 33;
  RacAgent agent(options, std::move(library), 0);
  env::AnalyticEnvOptions live;
  live.noise_sigma = 0.1;
  live.seed = 50;
  env::AnalyticEnv env(shopping, live);
  const std::string path = ::testing::TempDir() + "/rac_checkpoint_live.rac";
  RunOptions run;
  run.checkpoint_every = 7;
  run.checkpoint_path = path;
  run_agent(env, agent, {{0, shopping}, {12, ordering}}, 30, run);
  ASSERT_GE(agent.policy_switches(), 1);
  // The premise: the table is an overlay holding own rows of both kinds,
  // a base row copied on a first visit and a row the base lacks.
  const rl::QTable& table = agent.qtable();
  ASSERT_NE(table.base(), nullptr);
  bool copied_row = false;
  bool new_row = false;
  for (const Configuration& state : agent.experience().sorted_configurations()) {
    if (table.find_row(state) == rl::QTable::npos) continue;
    (table.base()->contains(state) ? copied_row : new_row) = true;
  }
  ASSERT_TRUE(copied_row);
  ASSERT_TRUE(new_row);
  ASSERT_LT(table.num_rows(), table.size());

  std::ostringstream copied;
  save_agent_snapshot(copied, agent.snapshot());
  std::ostringstream live_table;
  ASSERT_TRUE(agent.save_state(live_table));
  EXPECT_EQ(live_table.str(), copied.str());
  // The runner's last checkpoint, taken after iteration 30, holds it too.
  EXPECT_EQ(load_checkpoint_file(path).agent_state, copied.str());
  std::remove(path.c_str());
}

// Counts and discards what it is given, so the hook sees only the
// writer's own allocations, not the stream's.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

// One checkpoint must cost the states it writes: an agent table of 10^3
// written states serializes with a few allocations sized by its output.
// The agent adopts it through restore, which keeps a table as it is.
TEST(RacAgentCheckpoint, SaveStateHeapScalesWithWrittenStatesNotTableRows) {
  if (!obs::alloc_hook_compiled()) {
    GTEST_SKIP() << "allocation counting needs -DRAC_ALLOC_HOOK=ON";
  }
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  policy.table.set_default_q(-0.25);
  util::Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const Configuration state = config::ConfigSpace::random_fine(rng);
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      policy.table.set_q(state, config::Action(static_cast<int>(a)),
                         rng.normal(0.0, 3.0));
    }
  }
  const rl::QTable table = policy.table;
  InitialPolicyLibrary library;
  library.add(std::move(policy));
  RacAgent agent(RacOptions{}, std::move(library), 0);
  AgentSnapshot snapshot = agent.snapshot();
  snapshot.state.qtable = table;
  agent.restore(snapshot);
  ASSERT_EQ(agent.qtable().base(), nullptr);
  ASSERT_GE(agent.qtable().size(), 900u);
  ASSERT_LE(agent.qtable().size(), 1000u);

  CountingBuf sink;
  std::ostream os(&sink);
  const obs::ProcessStats before = obs::process_stats();
  obs::set_alloc_counting(true);
  const bool saved = agent.save_state(os);
  obs::set_alloc_counting(false);
  const obs::ProcessStats after = obs::process_stats();
  ASSERT_TRUE(saved);
  ASSERT_TRUE(os.good());
  const std::uint64_t allocations = after.alloc_count - before.alloc_count;
  const std::uint64_t allocated = after.alloc_bytes - before.alloc_bytes;
  EXPECT_LT(allocations, 1000u);
  EXPECT_LT(allocated, 8 * sink.bytes());
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("allocated_bytes", std::to_string(allocated));
  RecordProperty("written_bytes", std::to_string(sink.bytes()));
}

// --- RacAgent::restore validation -------------------------------------------

InitialPolicyLibrary synthetic_library(const SystemContext& context) {
  InitialPolicy policy;
  policy.context = context;
  InitialPolicyLibrary library;
  library.add(policy);
  return library;
}

// The agent computes its hyperparameters once, field by field from its
// options; each must land in its own field.
TEST(RacAgentRestore, SnapshotRecordsEveryOption) {
  RacOptions o;
  o.sla.reference_response_ms = 750.0;
  o.online_epsilon = 0.07;
  o.online_td = {0.2, 0.8, 0.15, 1e-4, 6, 25};
  o.violation = {8, 0.4, 4, 2, nullptr};
  o.online_learning = false;
  o.adaptive_policy_switching = false;
  o.robustness = {true, -3.5, 3, 2};
  o.safe_fallback = {true, 4, 2.5};
  o.seed = 4242;
  const AgentHyperparameters p = RacAgent(o, {}).snapshot().hyperparameters;
  EXPECT_EQ(p.sla_reference_response_ms, 750.0);
  EXPECT_EQ(p.online_epsilon, 0.07);
  EXPECT_EQ(p.online_td, o.online_td);
  EXPECT_EQ(p.violation_window, 8u);
  EXPECT_EQ(p.violation_threshold, 0.4);
  EXPECT_EQ(p.violation_consecutive_limit, 4);
  EXPECT_EQ(p.violation_min_history, 2u);
  EXPECT_FALSE(p.online_learning);
  EXPECT_FALSE(p.adaptive_policy_switching);
  EXPECT_TRUE(p.robustness_clamp);
  EXPECT_EQ(p.robustness_floor, -3.5);
  EXPECT_EQ(p.robustness_median_of, 3);
  EXPECT_EQ(p.robustness_freeze_after, 2);
  EXPECT_TRUE(p.safe_fallback_enabled);
  EXPECT_EQ(p.safe_fallback_after, 4);
  EXPECT_EQ(p.safe_fallback_factor, 2.5);
  EXPECT_EQ(p.seed, 4242u);
  EXPECT_EQ(p.experience_blend, rl::ExperienceStore().blend());
}

std::string saved_state(const RacAgent& agent) {
  std::ostringstream os;
  agent.save_state(os);
  return os.str();
}

// A well-formed snapshot of a differently configured agent is the wrong
// agent, not a bad file: restore throws std::invalid_argument and leaves
// the agent as it was.
TEST(RacAgentRestore, RejectsHyperparameterDrift) {
  const RacOptions options;
  RacAgent donor(options, {});
  donor.observe(donor.decide(), {420.0, 10.0});
  std::istringstream is(saved_state(donor));
  const AgentSnapshot snapshot = load_agent_snapshot(is);
  RacOptions drifted = options;
  drifted.online_epsilon = 0.2;
  RacAgent agent(drifted, {});
  const std::string before = saved_state(agent);
  EXPECT_THROW(agent.check_restorable(snapshot), std::invalid_argument);
  EXPECT_THROW(agent.restore(snapshot), std::invalid_argument);
  EXPECT_EQ(saved_state(agent), before);
  // The same snapshot restores fine under matching options.
  RacAgent twin(options, {});
  EXPECT_NO_THROW(twin.restore(snapshot));
}

TEST(RacAgentRestore, RejectsLibrarySizeMismatch) {
  const RacOptions options;
  RacAgent donor(options, {});  // empty library
  const AgentSnapshot snapshot = donor.snapshot();
  RacAgent agent(options, synthetic_library(
                              {MixType::kShopping, VmLevel::kLevel1}));
  EXPECT_THROW(agent.restore(snapshot), std::invalid_argument);
}

TEST(RacAgentRestore, RejectsActivePolicyContextMismatch) {
  const RacOptions options;
  RacAgent donor(options, synthetic_library(
                              {MixType::kShopping, VmLevel::kLevel1}));
  const AgentSnapshot snapshot = donor.snapshot();
  ASSERT_TRUE(snapshot.state.active_policy.has_value());
  EXPECT_EQ(snapshot.active_policy_context, "shopping/Level-1");

  // Same library size, different context at the active index: the index
  // would silently point at the wrong policy after a library rebuild.
  RacAgent agent(options, synthetic_library(
                              {MixType::kOrdering, VmLevel::kLevel3}));
  EXPECT_THROW(agent.restore(snapshot), std::invalid_argument);
}

TEST(RacAgentRestore, FailedRestoreLeavesAgentUsable) {
  const RacOptions options;
  RacAgent agent(options, {});
  agent.observe(agent.decide(), {420.0, 10.0});
  const std::string before = saved_state(agent);
  AgentSnapshot corrupt = agent.snapshot();
  corrupt.detector_consecutive = 999;  // detector restore throws
  corrupt.state.first_decide = true;
  EXPECT_THROW(agent.restore(corrupt), std::invalid_argument);
  // State is untouched: the agent still writes the same bytes.
  EXPECT_EQ(saved_state(agent), before);
}

}  // namespace
}  // namespace rac::core
