#include "core/snapshot.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "config/space.hpp"
#include "env/environment.hpp"
#include "rl/serialization.hpp"
#include "util/lineio.hpp"

namespace rac::core {

namespace {

constexpr const char* kSnapshotMagic = "rac-agent-snapshot";
constexpr const char* kCheckpointMagic = "rac-checkpoint";
constexpr int kSnapshotVersion = 2;
constexpr int kCheckpointVersion = 2;
constexpr const char* kWhat = "load_agent_snapshot";

[[noreturn]] void malformed(const std::string& why) {
  throw std::runtime_error(std::string(kWhat) + ": " + why);
}

// A response time as the agent keeps one (median window, freeze tracker,
// detector window): it drops non-finite and negative measurements before
// any of them sees one.
double read_sample(std::istream& is) {
  const double sample = util::read_double(is, kWhat);
  if (!std::isfinite(sample) || sample < 0.0) {
    malformed("non-finite or negative response sample");
  }
  return sample;
}

}  // namespace

void save_agent_snapshot(std::ostream& os, const AgentSnapshotHeader& h,
                         const AgentState& state) {
  const AgentHyperparameters& p = h.hyperparameters;
  os << kSnapshotMagic << " v" << kSnapshotVersion << "\n";
  os << "sla " << util::format_double(p.sla_reference_response_ms) << "\n";
  os << "online_epsilon " << util::format_double(p.online_epsilon) << "\n";
  os << "online_td " << util::format_double(p.online_td.alpha) << ' '
     << util::format_double(p.online_td.gamma) << ' '
     << util::format_double(p.online_td.epsilon) << ' '
     << util::format_double(p.online_td.theta) << ' '
     << util::format_i64(p.online_td.trajectory_limit) << ' '
     << util::format_i64(p.online_td.max_sweeps) << "\n";
  os << "violation " << util::format_u64(p.violation_window) << ' '
     << util::format_double(p.violation_threshold) << ' '
     << util::format_i64(p.violation_consecutive_limit) << ' '
     << util::format_u64(p.violation_min_history) << "\n";
  os << "online_learning " << util::bool_token(p.online_learning) << "\n";
  os << "adaptive_policy_switching "
     << util::bool_token(p.adaptive_policy_switching) << "\n";
  os << "seed " << util::format_u64(p.seed) << "\n";
  os << "library_size " << util::format_u64(h.library_size) << "\n";
  os << "experience_blend " << util::format_double(p.experience_blend) << "\n";
  // "-" marks the no-policy case; context tokens never collide with it.
  os << "active_policy ";
  if (state.active_policy.has_value()) {
    os << util::format_u64(*state.active_policy) << ' '
       << (h.active_policy_context.empty() ? "-" : h.active_policy_context);
  } else {
    os << "-1 -";
  }
  os << "\n";
  os << "current ";
  config::write_configuration(os, state.current);
  os << "\n";
  os << "first_decide " << util::bool_token(state.first_decide) << "\n";
  os << "policy_switches " << util::format_i64(state.policy_switches) << "\n";
  os << "last_selection " << util::format_i64(state.last_selection.action.id())
     << ' ' << util::bool_token(state.last_selection.explored) << ' '
     << util::format_double(state.last_selection.q_value) << "\n";
  os << "last_policy_switched "
     << util::bool_token(state.last_policy_switched) << "\n";
  os << "last_reward " << util::format_double(state.last_reward) << "\n";
  os << "calibration " << util::bool_token(!state.calibration_log.empty())
     << ' ' << util::format_double(state.calibration_log.value()) << "\n";
  os << "robustness " << util::bool_token(p.robustness_clamp) << ' '
     << util::format_double(p.robustness_floor) << ' '
     << util::format_i64(p.robustness_median_of) << ' '
     << util::format_i64(p.robustness_freeze_after) << ' '
     << util::bool_token(p.safe_fallback_enabled) << ' '
     << util::format_i64(p.safe_fallback_after) << ' '
     << util::format_double(p.safe_fallback_factor) << "\n";
  os << "recent " << util::format_u64(state.recent_responses.size());
  for (double v : state.recent_responses) os << ' ' << util::format_double(v);
  os << "\n";
  os << "fallback " << util::format_i64(state.blowout_streak) << ' '
     << util::bool_token(state.last_safe_fallback) << ' '
     << util::format_i64(state.safe_fallbacks) << "\n";
  os << "freeze " << util::bool_token(state.freeze_has_last) << ' '
     << util::format_double(state.freeze_last_raw) << ' '
     << util::format_i64(state.freeze_repeats) << "\n";
  util::write_rng_state(os, "rng", state.rng.state());
  os << "detector " << util::format_i64(h.detector_consecutive) << ' '
     << util::bool_token(h.detector_last_violation) << ' '
     << util::format_u64(h.detector_history.size());
  for (double v : h.detector_history) os << ' ' << util::format_double(v);
  os << "\n";
  const auto entries = state.experience.entries();
  os << "experience " << util::format_u64(entries.size()) << "\n";
  for (const auto& entry : entries) {
    config::write_configuration(os, entry.configuration);
    os << ' ' << util::format_double(entry.observation.response_ms) << ' '
       << util::format_u64(entry.observation.count) << "\n";
  }
  rl::save_qtable(os, state.qtable);
  os << "end\n";
  if (!os) throw std::ios_base::failure("save_agent_snapshot: write failed");
}

// The record's experience store and calibration average validate what
// they are built from; from a file, their rejection is malformed input.
AgentSnapshot load_agent_snapshot(std::istream& is) try {
  util::expect_header(is, kSnapshotMagic, kSnapshotVersion, kWhat);
  AgentSnapshot s;
  AgentHyperparameters& p = s.hyperparameters;
  AgentState& state = s.state;
  util::expect_token(is, "sla", kWhat);
  p.sla_reference_response_ms = util::read_double(is, kWhat);
  util::expect_token(is, "online_epsilon", kWhat);
  p.online_epsilon = util::read_double(is, kWhat);
  util::expect_token(is, "online_td", kWhat);
  p.online_td.alpha = util::read_double(is, kWhat);
  p.online_td.gamma = util::read_double(is, kWhat);
  p.online_td.epsilon = util::read_double(is, kWhat);
  p.online_td.theta = util::read_double(is, kWhat);
  p.online_td.trajectory_limit = util::read_int(is, kWhat);
  p.online_td.max_sweeps = util::read_int(is, kWhat);
  util::expect_token(is, "violation", kWhat);
  p.violation_window = util::read_u64(is, kWhat);
  p.violation_threshold = util::read_double(is, kWhat);
  p.violation_consecutive_limit = util::read_int(is, kWhat);
  p.violation_min_history = util::read_u64(is, kWhat);
  util::expect_token(is, "online_learning", kWhat);
  p.online_learning = util::read_bool(is, kWhat);
  util::expect_token(is, "adaptive_policy_switching", kWhat);
  p.adaptive_policy_switching = util::read_bool(is, kWhat);
  util::expect_token(is, "seed", kWhat);
  p.seed = util::read_u64(is, kWhat);
  util::expect_token(is, "library_size", kWhat);
  s.library_size = util::read_u64(is, kWhat);
  util::expect_token(is, "experience_blend", kWhat);
  p.experience_blend = util::read_double(is, kWhat);
  util::expect_token(is, "active_policy", kWhat);
  {
    const std::int64_t index = util::read_i64(is, kWhat);
    const std::string token = util::read_token(is, kWhat);
    if (index < -1 || (index >= 0) != (token != "-")) {
      malformed("bad active policy index or context token");
    }
    if (index >= 0) {
      state.active_policy = static_cast<std::size_t>(index);
      s.active_policy_context = token;
    }
  }
  util::expect_token(is, "current", kWhat);
  state.current = config::read_configuration(is, kWhat);
  util::expect_token(is, "first_decide", kWhat);
  state.first_decide = util::read_bool(is, kWhat);
  util::expect_token(is, "policy_switches", kWhat);
  state.policy_switches = util::read_int(is, kWhat);
  util::expect_token(is, "last_selection", kWhat);
  {
    const int action = util::read_int(is, kWhat);
    if (action < 0 || action >= static_cast<int>(config::kNumActions)) {
      malformed("action id out of range");
    }
    state.last_selection.action = config::Action(action);
  }
  state.last_selection.explored = util::read_bool(is, kWhat);
  state.last_selection.q_value = util::read_double(is, kWhat);
  util::expect_token(is, "last_policy_switched", kWhat);
  state.last_policy_switched = util::read_bool(is, kWhat);
  util::expect_token(is, "last_reward", kWhat);
  state.last_reward = util::read_double(is, kWhat);
  util::expect_token(is, "calibration", kWhat);
  {
    const bool initialized = util::read_bool(is, kWhat);
    state.calibration_log.restore(util::read_double(is, kWhat), initialized);
  }
  util::expect_token(is, "robustness", kWhat);
  p.robustness_clamp = util::read_bool(is, kWhat);
  p.robustness_floor = util::read_double(is, kWhat);
  p.robustness_median_of = util::read_int(is, kWhat);
  p.robustness_freeze_after = util::read_int(is, kWhat);
  p.safe_fallback_enabled = util::read_bool(is, kWhat);
  p.safe_fallback_after = util::read_int(is, kWhat);
  p.safe_fallback_factor = util::read_double(is, kWhat);
  if (p.robustness_median_of < 1 || p.robustness_freeze_after < 0) {
    malformed("bad robustness hyperparameters");
  }
  util::expect_token(is, "recent", kWhat);
  {
    const std::uint64_t n = util::read_u64(is, kWhat);
    if (n > static_cast<std::uint64_t>(p.robustness_median_of)) {
      malformed("median window larger than median_of");
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      state.recent_responses.push_back(read_sample(is));
    }
  }
  util::expect_token(is, "fallback", kWhat);
  state.blowout_streak = util::read_int(is, kWhat);
  state.last_safe_fallback = util::read_bool(is, kWhat);
  state.safe_fallbacks = util::read_int(is, kWhat);
  util::expect_token(is, "freeze", kWhat);
  state.freeze_has_last = util::read_bool(is, kWhat);
  state.freeze_last_raw = read_sample(is);
  state.freeze_repeats = util::read_int(is, kWhat);
  // The agent counts each of these up, so their type's maximum is as
  // malformed as a negative value.
  for (const int counter : {state.policy_switches, state.blowout_streak,
                            state.safe_fallbacks, state.freeze_repeats}) {
    if (counter < 0 || counter == std::numeric_limits<int>::max()) {
      malformed("counter outside [0, INT_MAX)");
    }
  }
  state.rng.restore(util::read_rng_state(is, "rng"));
  util::expect_token(is, "detector", kWhat);
  s.detector_consecutive = util::read_int(is, kWhat);
  s.detector_last_violation = util::read_bool(is, kWhat);
  // The detector resets its streak on reaching the limit and flags a
  // violation only with a streak under way.
  if (s.detector_consecutive < 0 ||
      s.detector_consecutive >= p.violation_consecutive_limit ||
      (s.detector_last_violation && s.detector_consecutive == 0)) {
    malformed("detector streak outside [0, consecutive limit)");
  }
  // Counts are unchecked input: entries are appended as they parse, so a
  // huge count runs out of tokens instead of sizing an allocation.
  {
    const std::uint64_t n = util::read_u64(is, kWhat);
    if (n > p.violation_window) malformed("detector window larger than n");
    for (std::uint64_t i = 0; i < n; ++i) {
      s.detector_history.push_back(read_sample(is));
    }
  }
  util::expect_token(is, "experience", kWhat);
  {
    const std::uint64_t n = util::read_u64(is, kWhat);
    std::vector<rl::ExperienceEntry> entries;
    for (std::uint64_t i = 0; i < n; ++i) {
      rl::ExperienceEntry entry;
      entry.configuration = config::read_configuration(is, kWhat);
      entry.observation.response_ms = util::read_double(is, kWhat);
      entry.observation.count = util::read_u64(is, kWhat);
      entries.push_back(std::move(entry));
    }
    state.experience = rl::ExperienceStore(p.experience_blend);
    state.experience.restore(std::move(entries));
  }
  state.qtable = rl::load_qtable(is);
  util::expect_token(is, "end", kWhat);
  return s;
} catch (const std::invalid_argument& e) {
  malformed(e.what());
}

void write_checkpoint_file(const std::string& path,
                           const RunCheckpoint& checkpoint) {
  std::ostringstream header;
  header << kCheckpointMagic << " v" << kCheckpointVersion << "\n";
  header << "completed " << util::format_u64(checkpoint.completed_iterations)
         << "\n";
  header << "traffic " << util::format_u64(checkpoint.traffic_interval)
         << "\n";
  // The agent state is opaque text; a byte count delimits it so the
  // checkpoint loader need not understand the agent's own format. It is
  // written as its own part rather than copied behind the header.
  header << "agent_state " << util::format_u64(checkpoint.agent_state.size())
         << "\n";
  util::atomic_write_file(path,
                          {header.view(), checkpoint.agent_state, "\nend\n"});
}

RunCheckpoint load_checkpoint_file(const std::string& path) {
  constexpr const char* kWhat = "load_checkpoint_file";
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::ios_base::failure("load_checkpoint_file: cannot open " + path);
  }
  util::expect_header(is, kCheckpointMagic, kCheckpointVersion, kWhat);
  RunCheckpoint checkpoint;
  util::expect_token(is, "completed", kWhat);
  checkpoint.completed_iterations = util::read_u64(is, kWhat);
  util::expect_token(is, "traffic", kWhat);
  checkpoint.traffic_interval = env::TrafficCursor::read_position(is, kWhat);
  util::expect_token(is, "agent_state", kWhat);
  const std::uint64_t bytes = util::read_u64(is, kWhat);
  if (is.get() != '\n') {
    throw std::runtime_error(
        "load_checkpoint_file: expected newline after agent_state header");
  }
  // The byte count is unchecked input; it may not exceed what the file
  // still holds.
  const std::streampos start = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff remaining = is.tellg() - start;
  is.seekg(start);
  if (!is || bytes > static_cast<std::uint64_t>(remaining)) {
    throw std::runtime_error("load_checkpoint_file: truncated agent state");
  }
  checkpoint.agent_state.resize(bytes);
  is.read(checkpoint.agent_state.data(),
          static_cast<std::streamsize>(bytes));
  if (static_cast<std::uint64_t>(is.gcount()) != bytes) {
    throw std::runtime_error("load_checkpoint_file: truncated agent state");
  }
  util::expect_token(is, "end", kWhat);
  std::string extra;
  if (is >> extra) {
    throw std::runtime_error(
        "load_checkpoint_file: trailing garbage after checkpoint: '" + extra +
        "'");
  }
  return checkpoint;
}

}  // namespace rac::core
