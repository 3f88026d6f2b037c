// Checkpoint/restore for the online agent.
//
// A crash (or planned restart) of the management station must not cost the
// agent its accumulated learning: the paper's whole premise is that online
// refinement keeps improving the policy, so the learner state is persisted
// periodically and a restarted agent resumes from the last checkpoint.
//
// `AgentSnapshot` captures the complete mutable state of a RacAgent -- the
// Q-table, experience store, violation-detector window, RNG stream
// position, and every piece of per-interval bookkeeping -- plus the
// hyperparameters it was running with. Restoring validates that the live
// agent was constructed with the same hyperparameters (resuming a stream
// under different constants would silently produce a hybrid run) and then
// adopts the state wholesale; a restored agent continues bit-identically
// to one that never stopped.
//
// The serialization ("rac-agent-snapshot v2", and "rac-checkpoint v2" for
// run checkpoints) is the same locale-immune, line-oriented token format
// as rl/serialization (hex doubles via util/lineio, explicit "end"
// trailers so blocks can be embedded in larger streams). Each loader
// accepts only the version its writer emits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "rl/experience.hpp"
#include "rl/qtable.hpp"
#include "rl/td_learner.hpp"
#include "util/rng.hpp"

namespace rac::core {

/// Complete serializable state of a RacAgent. Produced by
/// RacAgent::snapshot(), consumed by RacAgent::restore().
struct AgentSnapshot {
  // -- hyperparameters (validated, not adopted, on restore) ---------------
  double sla_reference_response_ms = 1000.0;
  double online_epsilon = 0.05;
  rl::TdParams online_td{};
  std::uint64_t violation_window = 10;
  double violation_threshold = 0.3;
  int violation_consecutive_limit = 5;
  std::uint64_t violation_min_history = 3;
  bool online_learning = true;
  bool adaptive_policy_switching = true;
  // Robustness hyperparameters (all hardening off by default).
  bool robustness_clamp = false;
  double robustness_floor = -5.0;
  int robustness_median_of = 1;
  int robustness_freeze_after = 0;
  bool safe_fallback_enabled = false;
  int safe_fallback_after = 3;
  double safe_fallback_factor = 2.0;
  std::uint64_t seed = 11;
  std::uint64_t library_size = 0;
  double experience_blend = 0.6;

  // -- mutable learner state ----------------------------------------------
  bool has_active_policy = false;
  std::uint64_t active_policy = 0;
  /// Context token of the active policy ("shopping/Level-1"); restore
  /// checks it against the live library so an index cannot silently point
  /// at a different context after a library rebuild.
  std::string active_policy_context;
  rl::QTable qtable;
  std::vector<rl::ExperienceEntry> experience;
  std::vector<double> detector_history;
  int detector_consecutive = 0;
  bool detector_last_violation = false;
  util::RngState rng;
  config::Configuration current;
  bool first_decide = true;
  int policy_switches = 0;
  int last_action_id = 0;
  bool last_explored = false;
  double last_q_value = 0.0;
  bool last_policy_switched = false;
  double last_reward = 0.0;
  bool calibration_initialized = false;
  double calibration_value = 0.0;
  // Robustness state.
  std::vector<double> recent_responses;  // median-filter window, oldest first
  int blowout_streak = 0;
  bool last_safe_fallback = false;
  int safe_fallbacks = 0;
  bool freeze_has_last = false;
  double freeze_last_raw = 0.0;
  int freeze_repeats = 0;
};

/// Serialize a snapshot (versioned, ends with an "end" trailer). Throws
/// std::ios_base::failure on stream errors.
void save_agent_snapshot(std::ostream& os, const AgentSnapshot& snapshot);

/// The same writer with `qtable` serialized in place of snapshot.qtable,
/// which is ignored: RacAgent::save_state passes its live table instead of
/// copying it into a snapshot.
void save_agent_snapshot(std::ostream& os, const AgentSnapshot& snapshot,
                         const rl::QTable& qtable);

/// Parse a snapshot produced by save_agent_snapshot. Throws
/// std::runtime_error on malformed input, any version but v2 included.
/// Leaves the stream positioned just past the snapshot's "end" trailer.
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
