// Checkpoint/restore for the online agent.
//
// A crash (or planned restart) of the management station must not cost the
// agent its accumulated learning: the paper's whole premise is that online
// refinement keeps improving the policy, so the learner state is persisted
// periodically and a restarted agent resumes from the last checkpoint.
//
// `AgentState` is the learner state itself: the record a RacAgent owns and
// updates every interval. `AgentSnapshot` carries one, plus what restore
// checks against the live agent (its constants, library size and the
// active policy's context token) and the violation detector's window.
// RacAgent::snapshot() copies the record, save_state writes the live one,
// and restore assigns it once the checks pass; a restored agent continues
// bit-identically to one that never stopped.
//
// The serialization ("rac-agent-snapshot v3", and "rac-checkpoint v2" for
// run checkpoints) is the same locale-immune, line-oriented token format
// as rl/serialization (hex doubles via util/lineio, explicit "end"
// trailers so blocks can be embedded in larger streams). A v3 snapshot
// stores the Q-table's own rows only, the rows the agent wrote, as a
// rac-qtable block after a `qtable_base` line naming the library policy
// they overlay by its fingerprint ("-" for a table without a base). The
// library tables themselves are never written: a checkpoint costs the
// rows the agent wrote, and restore re-bases them on the live library,
// refusing one whose policy has another fingerprint. Each loader accepts
// only the version its writer emits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "rl/experience.hpp"
#include "rl/policy.hpp"
#include "rl/qtable.hpp"
#include "rl/td_learner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rac::core {

/// A RacAgent's constants as a snapshot records them: RacOptions without
/// the registries, plus the experience store's blend. The agent computes
/// its own once at construction, and restore refuses a snapshot whose
/// constants differ, doubles compared with == (the file stores exact hex
/// values).
struct AgentHyperparameters {
  double sla_reference_response_ms = 1000.0;
  double online_epsilon = 0.05;
  rl::TdParams online_td{};
  std::uint64_t violation_window = 10;
  double violation_threshold = 0.3;
  int violation_consecutive_limit = 5;
  std::uint64_t violation_min_history = 3;
  bool online_learning = true;
  bool adaptive_policy_switching = true;
  bool robustness_clamp = false;
  double robustness_floor = -5.0;
  int robustness_median_of = 1;
  int robustness_freeze_after = 0;
  bool safe_fallback_enabled = false;
  int safe_fallback_after = 3;
  double safe_fallback_factor = 2.0;
  std::uint64_t seed = 11;
  double experience_blend = 0.6;

  bool operator==(const AgentHyperparameters&) const = default;
};

/// The learner state of a RacAgent: everything it changes while it runs,
/// except the violation detector's window.
struct AgentState {
  std::optional<std::size_t> active_policy;
  /// An overlay on its policy's library table (RacAgent::load_policy); a
  /// plain table without a library.
  rl::QTable qtable;
  /// The fingerprint of the library policy whose table `qtable` overlays
  /// (InitialPolicyLibrary::fingerprint), recorded when the base is; empty
  /// for a table without a base. A snapshot stores the own rows and this
  /// name of their base, and restore puts the rows back over the base it
  /// names.
  std::optional<std::uint64_t> base_fingerprint;
  rl::ExperienceStore experience;
  util::Rng rng;
  /// The configuration the system currently runs; the management loop
  /// starts from the Table-1 default.
  config::Configuration current;
  bool first_decide = true;
  int policy_switches = 0;
  // The current interval's decision, reported through annotate() once the
  // measurement lands.
  rl::Selection last_selection{};
  bool last_policy_switched = false;
  double last_reward = 0.0;
  // Online calibration of the offline surface: the live environment's
  // response-time *level* can differ from the offline traces' (stale
  // staging data, or a pinned policy from a foreign context); a smoothed
  // measured/predicted ratio rescales the surface so unvisited states
  // track the live system's magnitude while keeping the learned shape.
  util::Ewma calibration_log{0.25};
  // Robustness state (all inert at the default-off options).
  std::deque<double> recent_responses;  // raw samples for the median filter
  int blowout_streak = 0;               // consecutive SLA blowouts seen
  bool last_safe_fallback = false;      // last decide() was a fallback
  int safe_fallbacks = 0;
  bool freeze_has_last = false;         // freeze detector: previous raw
  double freeze_last_raw = 0.0;         //   sample and how often it
  int freeze_repeats = 0;               //   repeated bitwise
};

/// What a snapshot holds beside the learner state. Restore checks the
/// constants, the library size and the active policy's context token (so
/// an index cannot point at another context after a library rebuild), and
/// adopts the detector's window, streak and flag: the detector stays a
/// live member of the agent, because it owns registry handles.
struct AgentSnapshotHeader {
  AgentHyperparameters hyperparameters;
  std::uint64_t library_size = 0;
  std::string active_policy_context;  // "shopping/Level-1"; "" without one
  std::vector<double> detector_history;
  int detector_consecutive = 0;
  bool detector_last_violation = false;
};

/// Complete serializable state of a RacAgent. Produced by
/// RacAgent::snapshot(), consumed by RacAgent::restore().
struct AgentSnapshot : AgentSnapshotHeader {
  AgentState state;
};

/// Serialize a snapshot (versioned, ends with an "end" trailer); save_state
/// hands the writer its live record. Throws std::ios_base::failure on
/// stream errors.
void save_agent_snapshot(std::ostream& os, const AgentSnapshotHeader& header,
                         const AgentState& state);
inline void save_agent_snapshot(std::ostream& os,
                                const AgentSnapshot& snapshot) {
  save_agent_snapshot(os, snapshot, snapshot.state);
}

/// Parse a snapshot produced by save_agent_snapshot. Its Q-table holds the
/// own rows and no base; its base_fingerprint names the base they overlay.
/// Throws std::runtime_error on malformed input (any version but v3
/// included) and on every value no agent could hold, so that restore's
/// std::invalid_argument only ever means the wrong agent. Leaves the
/// stream positioned just past the snapshot's "end" trailer.
AgentSnapshot load_agent_snapshot(std::istream& is);

/// A run checkpoint: how far the management loop got plus the agent's
/// serialized state (opaque text produced by ConfigAgent::save_state).
///
/// `traffic_interval` is the environment's dynamic-traffic cursor
/// (env::Environment::traffic_interval()) at checkpoint time -- it counts
/// measurements, not loop iterations, so under measurement retries it can
/// exceed `completed_iterations`. Resume callers re-install the traffic
/// model themselves (the model is immutable run input, like the context
/// schedule) and then seek_traffic() to this cursor.
struct RunCheckpoint {
  std::uint64_t completed_iterations = 0;
  std::uint64_t traffic_interval = 0;
  std::string agent_state;
};

/// Atomically write a checkpoint file (temp file + rename, so a crash
/// mid-write never corrupts the previous checkpoint).
void write_checkpoint_file(const std::string& path,
                           const RunCheckpoint& checkpoint);

/// Load a checkpoint file; rejects trailing garbage. Throws
/// std::ios_base::failure if the file cannot be opened and
/// std::runtime_error on malformed contents, any version but v2 included.
RunCheckpoint load_checkpoint_file(const std::string& path);

}  // namespace rac::core
