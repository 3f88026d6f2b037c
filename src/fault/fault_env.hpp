// Deterministic fault injection for the monitoring/actuation pipeline.
//
// FaultyEnv decorates any env::Environment with the realistic failure
// modes of a production measurement loop (paper Section 4.3 exists
// because such measurements misbehave):
//
//   * drop          -- the interval's measurement times out / is lost;
//   * spike         -- the reported latency is multiplied by an outlier
//                      factor (the system itself was fine);
//   * freeze        -- the sensor is stuck and repeats the previously
//                      reported sample;
//   * reconfig-fail -- the actuation is lost: the system keeps running
//                      the previously applied configuration;
//   * surge         -- a short workload surge / VM flap: the inner
//                      environment is switched to a different
//                      SystemContext for the interval and switched back to
//                      the scheduled one right after.
//
// Faults come from two sources that compose: a scripted schedule of
// episodes (like the runner's context schedule) and a stochastic profile
// of per-interval probabilities. The stochastic draws are a pure function
// of (seed, interval, fault kind) -- no shared stream -- so the fault
// script is bitwise-reproducible across runs and across a
// checkpoint/restore boundary regardless of how the inner environment
// consumes randomness.
//
// The decorator does not clone: clone_with_seed keeps the base's nullptr,
// because offline training measures a bare environment, never a faulty
// one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "env/context.hpp"
#include "env/environment.hpp"

namespace rac::obs {
class Counter;
class Registry;
}  // namespace rac::obs

namespace rac::fault {

enum class FaultKind : int {
  kDrop = 0,
  kSpike = 1,
  kFreeze = 2,
  kReconfigFail = 3,
  kSurge = 4,
};

inline constexpr int kNumFaultKinds = 5;

std::string fault_kind_name(FaultKind kind);

/// One scripted fault episode: `kind` is active on intervals
/// [start_interval, start_interval + duration).
struct FaultEpisode {
  FaultKind kind = FaultKind::kDrop;
  int start_interval = 0;
  int duration = 1;
  /// Spike episodes: reported-latency multiplier (0 = use the profile's).
  double magnitude = 0.0;
  /// Surge episodes: context measured under (unset = use the profile's).
  std::optional<env::SystemContext> surge_context;
};

using FaultSchedule = std::vector<FaultEpisode>;

/// Stochastic per-interval fault probabilities (all default 0 = off).
struct FaultProfile {
  double drop_prob = 0.0;
  double spike_prob = 0.0;
  double freeze_prob = 0.0;
  double reconfig_fail_prob = 0.0;
  double surge_prob = 0.0;
  /// Reported-latency multiplier of a spike interval.
  double spike_multiplier = 25.0;
  /// Context a surge interval is measured under.
  std::optional<env::SystemContext> surge_context;
};

struct FaultyEnvOptions {
  FaultSchedule schedule;
  FaultProfile profile;
  /// Seed of the stochastic fault script (independent of the inner
  /// environment's measurement noise).
  std::uint64_t seed = 17;
  /// The sample a dropped interval reports (a naive monitor typically
  /// reports zeros on timeout); measure_interval also flags it `lost`.
  env::PerfSample timeout_sentinel{};
  /// Registry receiving the injector's counters (core.fault.*); nullptr
  /// means obs::default_registry().
  obs::Registry* registry = nullptr;
};

/// The faults affecting one interval, fully resolved.
struct FaultDecision {
  bool drop = false;
  bool spike = false;
  bool freeze = false;
  bool reconfig_fail = false;
  bool surge = false;
  double spike_multiplier = 0.0;
  std::optional<env::SystemContext> surge_context;

  bool any() const noexcept {
    return drop || spike || freeze || reconfig_fail || surge;
  }
  /// Compact "+"-joined description ("drop+spike"); "" when clean.
  std::string note() const;
};

/// Serializable mutable state (for checkpoint/restore of a run with an
/// injected-fault environment). The true-performance history is
/// observability, not state, and is not part of it.
struct FaultyEnvState {
  int interval = 0;
  bool has_last_reported = false;
  env::PerfSample last_reported{};
  bool has_applied = false;
  config::Configuration applied_configuration{};
};

/// Serialize / parse a FaultyEnvState as labeled text tokens in the
/// snapshot idiom (locale-immune, hex-float doubles, bit-exact
/// round-trip). Both leave the stream just past the state's last token, so
/// the pair embeds cleanly inside a larger stream (the fleet checkpoint
/// does). load throws std::runtime_error on malformed input.
void save_faulty_env_state(std::ostream& os, const FaultyEnvState& state);
FaultyEnvState load_faulty_env_state(std::istream& is);

class FaultyEnv final : public env::Environment {
 public:
  /// Throws std::invalid_argument for a null inner environment,
  /// probabilities outside [0, 1], non-positive spike multipliers or
  /// episode durations, negative episode starts, or a surge source
  /// (episode or profile probability) with no surge context to draw on.
  FaultyEnv(std::unique_ptr<env::Environment> inner,
            FaultyEnvOptions options);

  /// Advance one interval: decide faults, actuate (or fail to), measure
  /// the truth, derive the reported sample.
  env::Measurement measure_interval(
      const config::Configuration& configuration) override;

  void set_context(const env::SystemContext& context) override;
  env::SystemContext context() const override;

  /// The traffic model shapes the true workload; the fault layer only
  /// distorts how it is observed, so the inner environment owns the cursor.
  env::TrafficCursor* traffic_cursor() override {
    return inner_->traffic_cursor();
  }

  /// Pure function of (options, interval): the faults injected into that
  /// interval. This is what the determinism contract rests on.
  FaultDecision faults_at(int interval) const;

  /// Ground-truth samples per interval (what the system actually did,
  /// before reporting faults) -- the robustness bench scores agents on
  /// these, not on the lied-about reported values.
  const std::vector<env::PerfSample>& true_history() const noexcept {
    return true_history_;
  }

  int interval() const noexcept { return state_.interval; }
  FaultyEnvState state() const { return state_; }
  /// Throws std::invalid_argument for a negative interval.
  void restore(const FaultyEnvState& state);

  env::Environment& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<env::Environment> inner_;
  FaultyEnvOptions options_;
  FaultyEnvState state_{};
  std::vector<env::PerfSample> true_history_;
  obs::Counter* intervals_ = nullptr;
  obs::Counter* drops_ = nullptr;
  obs::Counter* spikes_ = nullptr;
  obs::Counter* freezes_ = nullptr;
  obs::Counter* reconfig_failures_ = nullptr;
  obs::Counter* surges_ = nullptr;
};

}  // namespace rac::fault
