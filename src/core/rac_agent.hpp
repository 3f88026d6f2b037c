// The RAC online auto-configuration agent (paper Algorithm 3).
//
// Per measurement interval:
//   1. issue a reconfiguration action epsilon-greedily from the current
//      Q-table (paper: epsilon = 0.05 online);
//   2. measure the system's application-level performance;
//   3. check for context changes (ViolationDetector); after s_thr
//      consecutive violations switch to the best-matching initial policy.
//      The Q-table is re-seeded from that policy even when the best match
//      is the one already active: the online-refined table encodes the
//      pre-change operating point, while the offline prior still knows
//      the regions the change moved the system into;
//   4. fold the measurement into the experience store and retrain the
//      Q-table by batch TD sweeps (Algorithm 1 with the paper's batch
//      exploration rate 0.1) over every remembered state, so all states
//      learn about the new observation;
//   5. move to the next state.
//
// Ablation switches reproduce the paper's study: online learning on/off
// (Fig. 6), policy initialization on/off (Fig. 7), adaptive vs static
// initial policy (Figs. 9, 10), online exploration rate (Fig. 8).
//
// Everything the agent learns and updates per interval lives in one
// core::AgentState record (snapshot.hpp): snapshot() copies it,
// save_state writes it and restore assigns it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/agent.hpp"
#include "core/policy_library.hpp"
#include "core/reward.hpp"
#include "core/snapshot.hpp"
#include "core/violation.hpp"
#include "rl/experience.hpp"
#include "rl/policy.hpp"
#include "rl/qtable.hpp"
#include "rl/td_learner.hpp"

namespace rac::obs {
class Counter;
class Histogram;
class Registry;
}  // namespace rac::obs

namespace rac::core {

/// Outlier-robust reward ingestion (PR 5). Everything defaults OFF: the
/// paper's reward semantics (and the golden fig-5/fig-6 trajectories) are
/// preserved bit-for-bit unless a knob is explicitly turned.
struct RewardRobustness {
  /// Clamp the reward from below at `floor`. The paper's reward
  /// (ref - rt)/ref is unbounded below, so a single fault spike (say
  /// 10^6 ms) writes a catastrophic Q-value that bounded online episodes
  /// can never walk back.
  bool clamp = false;
  double floor = -5.0;
  /// Median-of-k filter on the measured response before it reaches the
  /// reward / experience / calibration paths (1 = off). The violation
  /// detector always sees the raw sample -- context-change detection must
  /// not be damped.
  int median_of = 1;
  /// Declare the sensor stuck after this many bitwise-identical raw
  /// responses in a row and skip ingestion of the stale value (0 = off).
  int freeze_detect_after = 0;
};

/// Safe-fallback step: after `after_blowouts` consecutive measurements
/// worse than `blowout_factor` x the SLA reference, the next decide()
/// reverts to the best configuration in the experience store instead of
/// following the (possibly poisoned) Q-table. Off by default.
struct SafeFallback {
  bool enabled = false;
  int after_blowouts = 3;
  double blowout_factor = 2.0;
};

struct RacOptions {
  SlaSpec sla{};
  /// Online action-selection exploration (paper: 0.05).
  double online_epsilon = 0.05;
  /// Batch-retraining constants (paper: alpha=.1, gamma=.9, eps=.1).
  rl::TdParams online_td{0.1, 0.9, 0.1, 1e-3, 8, 40};
  ViolationOptions violation{};
  /// Fig. 6 ablation: refine the policy from online measurements.
  bool online_learning = true;
  /// Fig. 9/10 ablation: switch initial policies on context change. When
  /// false the agent keeps its starting policy and relies on online
  /// learning alone.
  bool adaptive_policy_switching = true;
  /// Measurement-robustness hardening; all defaults preserve paper
  /// semantics exactly.
  RewardRobustness robustness{};
  SafeFallback safe_fallback{};
  std::uint64_t seed = 11;
  /// Registry receiving the agent's telemetry (core.rac.*, and rl.td.*
  /// from retraining); nullptr means obs::default_registry(). Also
  /// forwarded to the violation detector unless violation.registry is
  /// already set.
  obs::Registry* registry = nullptr;
};

class RacAgent : public ConfigAgent {
 public:
  /// `library` may be empty (the paper's "without policy initialization"
  /// agent). `initial_policy` optionally picks the starting policy index;
  /// by default the first library entry is used.
  RacAgent(const RacOptions& options, InitialPolicyLibrary library,
           std::optional<std::size_t> initial_policy = std::nullopt);

  config::Configuration decide() override;
  void observe(const config::Configuration& applied,
               const env::PerfSample& sample) override;
  std::string name() const override;

  /// Decision-trace enrichment: chosen action, greedy-vs-explore flag and
  /// Q-value from the last `decide`, reward / SLA margin of the last
  /// measurement, active policy and the interval's violation / policy-
  /// switch signals.
  void annotate(obs::TraceEvent& event) const override;

  /// The complete mutable state as a value: a copy of the learner-state
  /// record (its Q-table copies its own rows and shares its library base)
  /// plus what restore checks. A restored agent continues the run
  /// bit-identically to one that never stopped.
  AgentSnapshot snapshot() const;

  /// Throws std::invalid_argument unless the snapshot's hyperparameters
  /// and library size equal this agent's, its active policy names the
  /// context of the live library entry at that index, and `base` fits its
  /// Q-table's own rows: given exactly when the snapshot names a base, and
  /// QTable::fits_base. A fleet checks every tenant this way before it
  /// restores any.
  void check_restorable(const AgentSnapshot& snapshot,
                        const rl::QTable* base) const;

  /// check_restorable, then adopt the detector window and the record, its
  /// Q-table's own rows re-based on `base`: the table the snapshot's
  /// base_fingerprint names, which the caller found (a fleet checkpoint
  /// also holds the earlier library generations its tenants still read).
  /// Throws std::invalid_argument, leaving the agent unchanged, for a
  /// mismatch or a detector window the detector rejects.
  void restore(const AgentSnapshot& snapshot,
               std::shared_ptr<const rl::QTable> base);

  /// restore on the active policy's table in this agent's library. Throws
  /// std::invalid_argument, leaving the agent unchanged, also when that
  /// policy's fingerprint is not the snapshot's base_fingerprint: the
  /// snapshot was taken over another library.
  void restore(const AgentSnapshot& snapshot);

  /// ConfigAgent checkpoint hook: writes the bytes of
  /// save_agent_snapshot(os, snapshot()) from the live record: the Q-table's
  /// own rows and its base's fingerprint, never the library. Always true.
  bool save_state(std::ostream& os) const override;

  /// Swap in a refreshed copy of the policy library (fleet cross-tenant
  /// retraining publishes one shared COW library to every agent this way).
  /// The replacement must be shape-compatible: same size, same context per
  /// index -- only the trained content may differ. The live Q-table and
  /// active-policy index are untouched (the table keeps its base, and with
  /// it the old library's storage, alive); the new surfaces/tables take
  /// effect at the next policy switch. Throws std::invalid_argument on a
  /// shape mismatch.
  void rebase_library(InitialPolicyLibrary library);

  /// The fingerprint of the library policy the Q-table overlays (an
  /// earlier library's after rebase_library); empty without a base.
  std::optional<std::uint64_t> base_fingerprint() const noexcept {
    return state_.base_fingerprint;
  }

  // -- introspection (tests, harness commentary) ---------------------------
  const InitialPolicyLibrary& library() const noexcept { return library_; }
  const rl::QTable& qtable() const noexcept { return state_.qtable; }
  const config::Configuration& current() const noexcept {
    return state_.current;
  }
  std::optional<std::size_t> active_policy() const noexcept {
    return state_.active_policy;
  }
  int policy_switches() const noexcept { return state_.policy_switches; }
  const rl::ExperienceStore& experience() const noexcept {
    return state_.experience;
  }
  int safe_fallbacks() const noexcept { return state_.safe_fallbacks; }
  int blowout_streak() const noexcept { return state_.blowout_streak; }

 private:
  RacOptions opt_;
  AgentHyperparameters hyperparameters_;  // opt_ as a snapshot records it
  InitialPolicyLibrary library_;
  ViolationDetector detector_;
  rl::EpsilonGreedy online_policy_;
  AgentState state_;
  // Telemetry handles resolved against opt_.registry at construction
  // (registration is mutex-guarded, updates are relaxed atomics, so agents
  // owned by concurrent pool tasks are safe).
  obs::Counter* decisions_ = nullptr;
  obs::Counter* explorations_ = nullptr;
  obs::Counter* policy_switch_count_ = nullptr;
  obs::Counter* policy_reseed_count_ = nullptr;
  obs::Counter* retrain_count_ = nullptr;
  obs::Counter* nonfinite_samples_ = nullptr;
  obs::Counter* frozen_samples_ = nullptr;
  obs::Counter* safe_fallback_count_ = nullptr;
  obs::Histogram* select_us_ = nullptr;
  obs::Histogram* retrain_us_ = nullptr;

  /// Everything a snapshot holds beside the learner state.
  AgentSnapshotHeader snapshot_header() const;
  /// Re-seeds the Q-table from library policy `index`: the table becomes
  /// an overlay over the library's shared table with no rows of its own,
  /// a pointer swap rather than a copy, and records that policy's
  /// fingerprint beside it.
  void load_policy(std::size_t index);
  double lookup_response(const config::Configuration& c) const;
  /// Reward of a measured/blended response under the active robustness
  /// options (clamped from below iff robustness.clamp).
  double reward_of(double response_ms) const;
  void retrain();
};

}  // namespace rac::core
