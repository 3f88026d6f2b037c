#include "core/snapshot.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "config/space.hpp"
#include "rl/serialization.hpp"
#include "util/lineio.hpp"

namespace rac::core {

namespace {

constexpr const char* kSnapshotMagic = "rac-agent-snapshot";
constexpr const char* kCheckpointMagic = "rac-checkpoint";
constexpr int kSnapshotVersion = 2;
constexpr int kCheckpointVersion = 2;

}  // namespace

void save_agent_snapshot(std::ostream& os, const AgentSnapshot& s) {
  save_agent_snapshot(os, s, s.qtable);
}

void save_agent_snapshot(std::ostream& os, const AgentSnapshot& s,
                         const rl::QTable& qtable) {
  os << kSnapshotMagic << " v" << kSnapshotVersion << "\n";
  os << "sla " << util::format_double(s.sla_reference_response_ms) << "\n";
  os << "online_epsilon " << util::format_double(s.online_epsilon) << "\n";
  os << "online_td " << util::format_double(s.online_td.alpha) << ' '
     << util::format_double(s.online_td.gamma) << ' '
     << util::format_double(s.online_td.epsilon) << ' '
     << util::format_double(s.online_td.theta) << ' '
     << util::format_i64(s.online_td.trajectory_limit) << ' '
     << util::format_i64(s.online_td.max_sweeps) << "\n";
  os << "violation " << util::format_u64(s.violation_window) << ' '
     << util::format_double(s.violation_threshold) << ' '
     << util::format_i64(s.violation_consecutive_limit) << ' '
     << util::format_u64(s.violation_min_history) << "\n";
  os << "online_learning " << util::bool_token(s.online_learning) << "\n";
  os << "adaptive_policy_switching "
     << util::bool_token(s.adaptive_policy_switching) << "\n";
  os << "seed " << util::format_u64(s.seed) << "\n";
  os << "library_size " << util::format_u64(s.library_size) << "\n";
  os << "experience_blend " << util::format_double(s.experience_blend) << "\n";
  // "-" marks the no-policy case; context tokens never collide with it.
  os << "active_policy ";
  if (s.has_active_policy) {
    os << util::format_u64(s.active_policy) << ' '
       << (s.active_policy_context.empty() ? "-" : s.active_policy_context);
  } else {
    os << "-1 -";
  }
  os << "\n";
  os << "current ";
  config::write_configuration(os, s.current);
  os << "\n";
  os << "first_decide " << util::bool_token(s.first_decide) << "\n";
  os << "policy_switches " << util::format_i64(s.policy_switches) << "\n";
  os << "last_selection " << util::format_i64(s.last_action_id) << ' '
     << util::bool_token(s.last_explored) << ' '
     << util::format_double(s.last_q_value) << "\n";
  os << "last_policy_switched " << util::bool_token(s.last_policy_switched)
     << "\n";
  os << "last_reward " << util::format_double(s.last_reward) << "\n";
  os << "calibration " << util::bool_token(s.calibration_initialized) << ' '
     << util::format_double(s.calibration_value) << "\n";
  os << "robustness " << util::bool_token(s.robustness_clamp) << ' '
     << util::format_double(s.robustness_floor) << ' '
     << util::format_i64(s.robustness_median_of) << ' '
     << util::format_i64(s.robustness_freeze_after) << ' '
     << util::bool_token(s.safe_fallback_enabled) << ' '
     << util::format_i64(s.safe_fallback_after) << ' '
     << util::format_double(s.safe_fallback_factor) << "\n";
  os << "recent " << util::format_u64(s.recent_responses.size());
  for (double v : s.recent_responses) os << ' ' << util::format_double(v);
  os << "\n";
  os << "fallback " << util::format_i64(s.blowout_streak) << ' '
     << util::bool_token(s.last_safe_fallback) << ' '
     << util::format_i64(s.safe_fallbacks) << "\n";
  os << "freeze " << util::bool_token(s.freeze_has_last) << ' '
     << util::format_double(s.freeze_last_raw) << ' '
     << util::format_i64(s.freeze_repeats) << "\n";
  util::write_rng_state(os, "rng", s.rng);
  os << "detector " << util::format_i64(s.detector_consecutive) << ' '
     << util::bool_token(s.detector_last_violation) << ' '
     << util::format_u64(s.detector_history.size());
  for (double v : s.detector_history) os << ' ' << util::format_double(v);
  os << "\n";
  os << "experience " << util::format_u64(s.experience.size()) << "\n";
  for (const auto& entry : s.experience) {
    config::write_configuration(os, entry.configuration);
    os << ' ' << util::format_double(entry.observation.response_ms) << ' '
       << util::format_u64(entry.observation.count) << "\n";
  }
  rl::save_qtable(os, qtable);
  os << "end\n";
  if (!os) throw std::ios_base::failure("save_agent_snapshot: write failed");
}

AgentSnapshot load_agent_snapshot(std::istream& is) {
  constexpr const char* kWhat = "load_agent_snapshot";
  util::expect_header(is, kSnapshotMagic, kSnapshotVersion, kWhat);
  AgentSnapshot s;
  util::expect_token(is, "sla", kWhat);
  s.sla_reference_response_ms = util::read_double(is, kWhat);
  util::expect_token(is, "online_epsilon", kWhat);
  s.online_epsilon = util::read_double(is, kWhat);
  util::expect_token(is, "online_td", kWhat);
  s.online_td.alpha = util::read_double(is, kWhat);
  s.online_td.gamma = util::read_double(is, kWhat);
  s.online_td.epsilon = util::read_double(is, kWhat);
  s.online_td.theta = util::read_double(is, kWhat);
  s.online_td.trajectory_limit = util::read_int(is, kWhat);
  s.online_td.max_sweeps = util::read_int(is, kWhat);
  util::expect_token(is, "violation", kWhat);
  s.violation_window = util::read_u64(is, kWhat);
  s.violation_threshold = util::read_double(is, kWhat);
  s.violation_consecutive_limit = util::read_int(is, kWhat);
  s.violation_min_history = util::read_u64(is, kWhat);
  util::expect_token(is, "online_learning", kWhat);
  s.online_learning = util::read_bool(is, kWhat);
  util::expect_token(is, "adaptive_policy_switching", kWhat);
  s.adaptive_policy_switching = util::read_bool(is, kWhat);
  util::expect_token(is, "seed", kWhat);
  s.seed = util::read_u64(is, kWhat);
  util::expect_token(is, "library_size", kWhat);
  s.library_size = util::read_u64(is, kWhat);
  util::expect_token(is, "experience_blend", kWhat);
  s.experience_blend = util::read_double(is, kWhat);
  util::expect_token(is, "active_policy", kWhat);
  {
    const std::int64_t index = util::read_i64(is, kWhat);
    const std::string token = util::read_token(is, kWhat);
    if (index < -1) {
      throw std::runtime_error("load_agent_snapshot: bad policy index");
    }
    s.has_active_policy = index >= 0;
    s.active_policy = s.has_active_policy ? static_cast<std::uint64_t>(index) : 0;
    s.active_policy_context = (token == "-") ? std::string() : token;
    if (s.has_active_policy && s.active_policy_context.empty()) {
      throw std::runtime_error(
          "load_agent_snapshot: active policy without a context token");
    }
  }
  util::expect_token(is, "current", kWhat);
  s.current = config::read_configuration(is, kWhat);
  util::expect_token(is, "first_decide", kWhat);
  s.first_decide = util::read_bool(is, kWhat);
  util::expect_token(is, "policy_switches", kWhat);
  s.policy_switches = util::read_int(is, kWhat);
  util::expect_token(is, "last_selection", kWhat);
  s.last_action_id = util::read_int(is, kWhat);
  if (s.last_action_id < 0 ||
      s.last_action_id >= static_cast<int>(config::kNumActions)) {
    throw std::runtime_error("load_agent_snapshot: action id out of range");
  }
  s.last_explored = util::read_bool(is, kWhat);
  s.last_q_value = util::read_double(is, kWhat);
  util::expect_token(is, "last_policy_switched", kWhat);
  s.last_policy_switched = util::read_bool(is, kWhat);
  util::expect_token(is, "last_reward", kWhat);
  s.last_reward = util::read_double(is, kWhat);
  util::expect_token(is, "calibration", kWhat);
  s.calibration_initialized = util::read_bool(is, kWhat);
  s.calibration_value = util::read_double(is, kWhat);
  util::expect_token(is, "robustness", kWhat);
  s.robustness_clamp = util::read_bool(is, kWhat);
  s.robustness_floor = util::read_double(is, kWhat);
  s.robustness_median_of = util::read_int(is, kWhat);
  s.robustness_freeze_after = util::read_int(is, kWhat);
  s.safe_fallback_enabled = util::read_bool(is, kWhat);
  s.safe_fallback_after = util::read_int(is, kWhat);
  s.safe_fallback_factor = util::read_double(is, kWhat);
  if (s.robustness_median_of < 1 || s.robustness_freeze_after < 0) {
    throw std::runtime_error(
        "load_agent_snapshot: bad robustness hyperparameters");
  }
  util::expect_token(is, "recent", kWhat);
  {
    const std::uint64_t n = util::read_u64(is, kWhat);
    if (n > static_cast<std::uint64_t>(s.robustness_median_of)) {
      throw std::runtime_error(
          "load_agent_snapshot: median window larger than median_of");
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      s.recent_responses.push_back(util::read_double(is, kWhat));
    }
  }
  util::expect_token(is, "fallback", kWhat);
  s.blowout_streak = util::read_int(is, kWhat);
  s.last_safe_fallback = util::read_bool(is, kWhat);
  s.safe_fallbacks = util::read_int(is, kWhat);
  if (s.blowout_streak < 0 || s.safe_fallbacks < 0) {
    throw std::runtime_error("load_agent_snapshot: negative fallback state");
  }
  util::expect_token(is, "freeze", kWhat);
  s.freeze_has_last = util::read_bool(is, kWhat);
  s.freeze_last_raw = util::read_double(is, kWhat);
  s.freeze_repeats = util::read_int(is, kWhat);
  if (s.freeze_repeats < 0) {
    throw std::runtime_error("load_agent_snapshot: negative freeze repeats");
  }
  s.rng = util::read_rng_state(is, "rng");
  util::expect_token(is, "detector", kWhat);
  s.detector_consecutive = util::read_int(is, kWhat);
  s.detector_last_violation = util::read_bool(is, kWhat);
  // Counts are unchecked input: entries are appended as they parse, so a
  // huge count runs out of tokens instead of sizing an allocation.
  {
    const std::uint64_t n = util::read_u64(is, kWhat);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.detector_history.push_back(util::read_double(is, kWhat));
    }
  }
  util::expect_token(is, "experience", kWhat);
  {
    const std::uint64_t n = util::read_u64(is, kWhat);
    for (std::uint64_t i = 0; i < n; ++i) {
      rl::ExperienceEntry entry;
      entry.configuration = config::read_configuration(is, kWhat);
      entry.observation.response_ms = util::read_double(is, kWhat);
      entry.observation.count = util::read_u64(is, kWhat);
      s.experience.push_back(std::move(entry));
    }
  }
  s.qtable = rl::load_qtable(is);
  util::expect_token(is, "end", kWhat);
  return s;
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
  checkpoint.traffic_interval = util::read_u64(is, kWhat);
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
