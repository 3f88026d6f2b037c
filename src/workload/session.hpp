// Emulated-browser session generation.
//
// Each TPC-W emulated browser alternates: pick the next interaction by
// walking the mix's CBMG, wait an exponential think time, repeat; after a
// geometric number of interactions the session ends and the browser idles
// for the inter-session gap before starting a fresh session (new session
// state, new TCP connection). The discrete-event simulator consumes this
// stream.
#pragma once

#include <cstdint>

#include "util/rng.hpp"
#include "workload/tpcw.hpp"

namespace rac::workload {

struct BrowserStep {
  Interaction interaction;
  /// Seconds the browser thinks *before* issuing this interaction.
  double think_time_s;
  /// True if this step begins a new session (previous session ended; the
  /// think time above is the inter-session gap).
  bool new_session;
};

/// Complete serializable state of a SessionGenerator: the RNG stream
/// position plus the in-session walk position. Restoring it into a
/// generator constructed with the same (mix, think_scale) continues the
/// step stream bit-identically; the dynamic-traffic golden tests rest on
/// that.
struct SessionState {
  util::RngState rng;
  int remaining_in_session = 0;
  int last_interaction = 0;
  bool in_session = false;
  std::uint64_t steps = 0;
  std::uint64_t sessions = 0;
};

/// Stateful per-browser generator; deterministic given its RNG stream.
///
/// Navigation follows the mix's CBMG Markov chain (workload/cbmg.hpp):
/// each session starts from the chain's stationary page distribution
/// (entry_distribution) and walks the transition matrix, so forced pairs
/// (Search Request -> Search Results, Buy Request -> Buy Confirm, ...)
/// appear in order.
///
/// `think_scale` multiplies the profile's think and pause means (the
/// dynamic-traffic layer's heavy-tailed think modulation); session length
/// and the inter-session gap are unaffected. 1.0 reproduces the
/// unmodulated stream bitwise.
class SessionGenerator {
 public:
  /// Throws ContractViolation (RAC_EXPECT) for a non-positive think_scale.
  SessionGenerator(MixType mix, util::Rng rng, double think_scale = 1.0);

  MixType mix() const noexcept { return mix_; }

  /// Generate the browser's next step.
  BrowserStep next();

  /// Number of interactions generated so far.
  std::uint64_t steps_generated() const noexcept { return steps_; }

  /// Number of sessions started so far.
  std::uint64_t sessions_started() const noexcept { return sessions_; }

  /// Snapshot / resume the generator mid-stream (see SessionState).
  /// restore throws std::invalid_argument for negative counters or an
  /// out-of-enum interaction; the RNG state is validated by Rng::restore.
  SessionState state() const;
  void restore(const SessionState& state);

 private:
  MixType mix_;
  util::Rng rng_;
  BrowserProfile profile_;
  int remaining_in_session_ = 0;
  Interaction last_ = Interaction::kHome;
  bool in_session_ = false;
  std::uint64_t steps_ = 0;
  std::uint64_t sessions_ = 0;

  int draw_session_length();
  Interaction draw_interaction();
};

}  // namespace rac::workload
