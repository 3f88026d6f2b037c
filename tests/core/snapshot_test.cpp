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
  s.sla_reference_response_ms = 750.0;
  s.online_epsilon = 0.07;
  s.online_td = {0.2, 0.8, 0.15, 1e-4, 6, 25};
  s.violation_window = 8;
  s.violation_threshold = 0.4;
  s.violation_consecutive_limit = 4;
  s.violation_min_history = 2;
  s.online_learning = false;
  s.adaptive_policy_switching = false;
  s.seed = 4242;
  s.library_size = 3;
  s.experience_blend = 0.35;
  s.has_active_policy = true;
  s.active_policy = 2;
  s.active_policy_context = "ordering/Level-3";
  util::Rng rng(77);
  Configuration visited;
  visited.set(ParamId::kMaxClients, 250);
  s.qtable.set_default_q(-0.25);
  s.qtable.set_q(visited, config::Action(3), 1.0 / 3.0);
  s.experience.push_back({Configuration{}, {123.456, 4}});
  s.experience.push_back({visited, {88.25, 1}});
  s.detector_history = {100.0, 120.0, 95.5};
  s.detector_consecutive = 2;
  s.detector_last_violation = true;
  rng.normal();  // populate the Box-Muller cache
  s.rng = rng.state();
  s.current = visited;
  s.first_decide = false;
  s.policy_switches = 5;
  s.last_action_id = 7;
  s.last_explored = true;
  s.last_q_value = -1.5;
  s.last_policy_switched = true;
  s.last_reward = 0.625;
  s.calibration_initialized = true;
  s.calibration_value = 0.125;
  return s;
}

std::string serialized(const AgentSnapshot& s) {
  std::ostringstream os;
  save_agent_snapshot(os, s);
  return os.str();
}

TEST(AgentSnapshotIo, RoundTripPreservesEveryField) {
  const AgentSnapshot s = sample_snapshot();
  std::istringstream is(serialized(s));
  const AgentSnapshot r = load_agent_snapshot(is);

  EXPECT_EQ(r.sla_reference_response_ms, s.sla_reference_response_ms);
  EXPECT_EQ(r.online_epsilon, s.online_epsilon);
  EXPECT_EQ(r.online_td.alpha, s.online_td.alpha);
  EXPECT_EQ(r.online_td.gamma, s.online_td.gamma);
  EXPECT_EQ(r.online_td.epsilon, s.online_td.epsilon);
  EXPECT_EQ(r.online_td.theta, s.online_td.theta);
  EXPECT_EQ(r.online_td.trajectory_limit, s.online_td.trajectory_limit);
  EXPECT_EQ(r.online_td.max_sweeps, s.online_td.max_sweeps);
  EXPECT_EQ(r.violation_window, s.violation_window);
  EXPECT_EQ(r.violation_threshold, s.violation_threshold);
  EXPECT_EQ(r.violation_consecutive_limit, s.violation_consecutive_limit);
  EXPECT_EQ(r.violation_min_history, s.violation_min_history);
  EXPECT_EQ(r.online_learning, s.online_learning);
  EXPECT_EQ(r.adaptive_policy_switching, s.adaptive_policy_switching);
  EXPECT_EQ(r.seed, s.seed);
  EXPECT_EQ(r.library_size, s.library_size);
  EXPECT_EQ(r.experience_blend, s.experience_blend);
  EXPECT_EQ(r.has_active_policy, s.has_active_policy);
  EXPECT_EQ(r.active_policy, s.active_policy);
  EXPECT_EQ(r.active_policy_context, s.active_policy_context);
  EXPECT_EQ(r.qtable.size(), s.qtable.size());
  EXPECT_EQ(r.qtable.default_q(), s.qtable.default_q());
  ASSERT_EQ(r.experience.size(), s.experience.size());
  for (std::size_t i = 0; i < s.experience.size(); ++i) {
    EXPECT_EQ(r.experience[i].configuration, s.experience[i].configuration);
    EXPECT_EQ(r.experience[i].observation.response_ms,
              s.experience[i].observation.response_ms);
    EXPECT_EQ(r.experience[i].observation.count,
              s.experience[i].observation.count);
  }
  EXPECT_EQ(r.detector_history, s.detector_history);
  EXPECT_EQ(r.detector_consecutive, s.detector_consecutive);
  EXPECT_EQ(r.detector_last_violation, s.detector_last_violation);
  EXPECT_EQ(r.rng.words, s.rng.words);
  EXPECT_EQ(r.rng.has_cached_normal, s.rng.has_cached_normal);
  EXPECT_EQ(r.rng.cached_normal, s.rng.cached_normal);
  EXPECT_EQ(r.current, s.current);
  EXPECT_EQ(r.first_decide, s.first_decide);
  EXPECT_EQ(r.policy_switches, s.policy_switches);
  EXPECT_EQ(r.last_action_id, s.last_action_id);
  EXPECT_EQ(r.last_explored, s.last_explored);
  EXPECT_EQ(r.last_q_value, s.last_q_value);
  EXPECT_EQ(r.last_policy_switched, s.last_policy_switched);
  EXPECT_EQ(r.last_reward, s.last_reward);
  EXPECT_EQ(r.calibration_initialized, s.calibration_initialized);
  EXPECT_EQ(r.calibration_value, s.calibration_value);
}

TEST(AgentSnapshotIo, NoActivePolicyRoundTrips) {
  AgentSnapshot s;  // defaults: no active policy, empty everything
  s.library_size = 0;
  std::istringstream is(serialized(s));
  const AgentSnapshot r = load_agent_snapshot(is);
  EXPECT_FALSE(r.has_active_policy);
  EXPECT_TRUE(r.active_policy_context.empty());
  EXPECT_TRUE(r.experience.empty());
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
  const auto patched = [&text](const std::string& from, const std::string& to) {
    const std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    std::string out = text;
    if (pos != std::string::npos) out.replace(pos, from.size(), to);
    return out;
  };
  for (const std::string count : {"1000000000000", "18446744073709551615"}) {
    SCOPED_TRACE(count);
    std::istringstream experience(
        patched("\nexperience 2\n", "\nexperience " + count + "\n"));
    EXPECT_THROW(load_agent_snapshot(experience), std::runtime_error);
    std::istringstream detector(
        patched("\ndetector 2 1 3 ", "\ndetector 2 1 " + count + " "));
    EXPECT_THROW(load_agent_snapshot(detector), std::runtime_error);
  }
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

// --- RacAgent::save_state ---------------------------------------------------

// save_state serializes the live table; it must write exactly the bytes of
// the value snapshot, here for an agent whose table was re-seeded by a
// policy switch and then refined online: an overlay over the library table
// holding copied, written and warm rows of its own.
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
  // The premise: the table is an overlay and holds at least one unwritten
  // own row (a neighbor the retrain looked up and never wrote).
  const rl::QTable& table = agent.qtable();
  ASSERT_NE(table.base(), nullptr);
  bool warm_own_row = false;
  for (const Configuration& state : agent.experience().sorted_configurations()) {
    for (const config::Action a : config::ConfigSpace::all_actions()) {
      const Configuration next = config::ConfigSpace::apply(state, a);
      warm_own_row = warm_own_row || (table.find_row(next) != rl::QTable::npos &&
                                      !table.contains(next));
    }
  }
  ASSERT_TRUE(warm_own_row);

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

// One checkpoint must cost the states it writes, not the table: an agent
// table of 10^5 rows holding 10^3 written states (warm neighbor rows
// included) serializes with a few allocations sized by its output. A
// library table loses its warm rows when it enters the library, so the
// agent adopts this one through restore, which keeps a table as it is.
TEST(RacAgentCheckpoint, SaveStateHeapScalesWithWrittenStatesNotTableRows) {
  if (!obs::alloc_hook_compiled()) {
    GTEST_SKIP() << "allocation counting needs -DRAC_ALLOC_HOOK=ON";
  }
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  policy.table.set_default_q(-0.25);
  util::Rng rng(12);
  for (int i = 0; i < 100000; ++i) {
    const Configuration state = config::ConfigSpace::random_fine(rng);
    if (i % 100 == 0) {
      for (std::size_t a = 0; a < config::kNumActions; ++a) {
        policy.table.set_q(state, config::Action(static_cast<int>(a)),
                           rng.normal(0.0, 3.0));
      }
    }
    policy.table.ensure_row(state);
  }
  const rl::QTable table = policy.table;
  InitialPolicyLibrary library;
  library.add(std::move(policy));
  RacAgent agent(RacOptions{}, std::move(library), 0);
  AgentSnapshot snapshot = agent.snapshot();
  snapshot.qtable = table;
  agent.restore(snapshot);
  ASSERT_GE(agent.qtable().num_rows(), 99000u);
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

TEST(RacAgentRestore, RejectsHyperparameterDrift) {
  const RacOptions options;
  RacAgent donor(options, {});
  const AgentSnapshot snapshot = donor.snapshot();
  RacOptions drifted = options;
  drifted.online_epsilon = 0.2;
  RacAgent agent(drifted, {});
  EXPECT_THROW(agent.restore(snapshot), std::invalid_argument);
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
  ASSERT_TRUE(snapshot.has_active_policy);
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
  const AgentSnapshot before = agent.snapshot();
  AgentSnapshot corrupt = before;
  corrupt.detector_consecutive = 999;  // detector restore throws
  EXPECT_THROW(agent.restore(corrupt), std::invalid_argument);
  // State is untouched: a fresh snapshot still matches the original.
  const AgentSnapshot after = agent.snapshot();
  EXPECT_EQ(after.rng.words, before.rng.words);
  EXPECT_EQ(after.first_decide, before.first_decide);
}

}  // namespace
}  // namespace rac::core
