#include "core/rac_agent.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/context.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace rac::core {

namespace {

// The detector inherits the agent's registry unless it was given its own.
ViolationOptions with_registry(ViolationOptions violation,
                               obs::Registry* registry) {
  if (violation.registry == nullptr) violation.registry = registry;
  return violation;
}

const RacOptions& validated(const RacOptions& options) {
  if (options.robustness.median_of < 1) {
    throw std::invalid_argument("RacAgent: robustness.median_of < 1");
  }
  if (options.robustness.freeze_detect_after < 0) {
    throw std::invalid_argument(
        "RacAgent: negative robustness.freeze_detect_after");
  }
  if (options.robustness.clamp &&
      !std::isfinite(options.robustness.floor)) {
    throw std::invalid_argument("RacAgent: non-finite robustness.floor");
  }
  if (options.safe_fallback.enabled &&
      (options.safe_fallback.after_blowouts < 1 ||
       options.safe_fallback.blowout_factor <= 0.0)) {
    throw std::invalid_argument("RacAgent: bad safe_fallback options");
  }
  return options;
}

AgentHyperparameters hyperparameters_of(const RacOptions& o) {
  const RewardRobustness& r = o.robustness;
  const SafeFallback& f = o.safe_fallback;
  return {o.sla.reference_response_ms, o.online_epsilon, o.online_td,
          o.violation.window, o.violation.threshold,
          o.violation.consecutive_limit, o.violation.min_history,
          o.online_learning, o.adaptive_policy_switching, r.clamp, r.floor,
          r.median_of, r.freeze_detect_after, f.enabled, f.after_blowouts,
          f.blowout_factor, o.seed, rl::ExperienceStore().blend()};
}

}  // namespace

RacAgent::RacAgent(const RacOptions& options, InitialPolicyLibrary library,
                   std::optional<std::size_t> initial_policy)
    : opt_(validated(options)),
      hyperparameters_(hyperparameters_of(options)),
      library_(std::move(library)),
      detector_(with_registry(options.violation, options.registry)),
      online_policy_(options.online_epsilon) {
  state_.rng = util::Rng(options.seed);
  obs::Registry& reg = obs::registry_or_default(opt_.registry);
  decisions_ = &reg.counter("core.rac.decisions");
  explorations_ = &reg.counter("core.rac.explore_actions");
  policy_switch_count_ = &reg.counter("core.rac.policy_switches");
  policy_reseed_count_ = &reg.counter("core.rac.policy_reseeds");
  retrain_count_ = &reg.counter("core.rac.retrains");
  nonfinite_samples_ = &reg.counter("core.rac.nonfinite_samples");
  frozen_samples_ = &reg.counter("core.rac.frozen_samples");
  safe_fallback_count_ = &reg.counter("core.rac.safe_fallbacks");
  select_us_ = &reg.histogram("core.rac.select_us", obs::latency_us_bounds());
  retrain_us_ = &reg.histogram("core.rac.retrain_us", obs::latency_us_bounds());
  if (!library_.empty()) {
    load_policy(initial_policy.value_or(0));
  }
}

void RacAgent::load_policy(std::size_t index) {
  const obs::ProfileScope profile("rac.load_policy");
  state_.qtable.rebase(library_.shared_table(index));
  state_.base_fingerprint = library_.fingerprint(index);
  state_.active_policy = index;
}

std::string RacAgent::name() const {
  std::string n = "RAC";
  if (library_.empty()) n += "/no-init";
  if (!opt_.online_learning) n += "/offline-only";
  if (!opt_.adaptive_policy_switching && !library_.empty()) n += "/static-init";
  return n;
}

config::Configuration RacAgent::decide() {
  decisions_->add(1);
  state_.last_safe_fallback = false;
  if (state_.first_decide) {
    // Measure the starting configuration before acting (the agent needs a
    // baseline observation).
    state_.first_decide = false;
    state_.last_selection = {
        config::Action::keep(), false,
        state_.qtable.q(state_.current, config::Action::keep())};
    return state_.current;
  }
  if (opt_.safe_fallback.enabled &&
      state_.blowout_streak >= opt_.safe_fallback.after_blowouts) {
    // The Q-table steered us into (or failed to escape) sustained SLA
    // blowouts; revert to the best configuration we have actually measured
    // instead of trusting possibly poisoned values. Defaults when nothing
    // was measured yet -- the known-safe Table-1 starting point.
    state_.current =
        state_.experience.best().value_or(config::Configuration::defaults());
    state_.last_selection = {
        config::Action::keep(), false,
        state_.qtable.q(state_.current, config::Action::keep())};
    state_.blowout_streak = 0;
    state_.last_safe_fallback = true;
    ++state_.safe_fallbacks;
    safe_fallback_count_->add(1);
    return state_.current;
  }
  {
    const obs::ProfileScope profile("rac.select", *select_us_);
    state_.last_selection = online_policy_.select_detailed(
        state_.qtable, state_.current, state_.rng);
  }
  if (state_.last_selection.explored) explorations_->add(1);
  state_.current =
      config::ConfigSpace::apply(state_.current, state_.last_selection.action);
  return state_.current;
}

double RacAgent::lookup_response(const config::Configuration& c) const {
  if (const auto measured = state_.experience.response_ms(c)) return *measured;
  if (state_.active_policy.has_value()) {
    const double predicted =
        library_.at(*state_.active_policy).predict_response_ms(c);
    const double calibration = state_.calibration_log.empty()
                                   ? 1.0
                                   : std::exp(state_.calibration_log.value());
    return predicted * calibration;
  }
  // No knowledge at all: assume SLA-level performance (neutral reward).
  return opt_.sla.reference_response_ms;
}

void RacAgent::retrain() {
  retrain_count_->add(1);
  const obs::ProfileScope profile("rac.retrain", *retrain_us_);
  // Batch sweep over every remembered state plus the current one, so the
  // fresh observation propagates through the Q-table (Section 4.2). Sweep
  // in canonical (sorted) state order: the result must not depend on how
  // the experience store happens to iterate, or a restored agent could
  // diverge from the run it resumed. The store maintains that order
  // incrementally, so the sweep borrows its list instead of re-sorting.
  std::span<const config::Configuration> states =
      state_.experience.sorted_configurations();
  std::vector<config::Configuration> fallback;
  if (states.empty()) {
    fallback.push_back(state_.current);
    states = fallback;
  }
  const rl::RewardFn reward = [this](const config::Configuration& c) {
    return reward_of(lookup_response(c));
  };
  rl::batch_train(state_.qtable, states, reward, opt_.online_td, state_.rng,
                  opt_.registry);
}

double RacAgent::reward_of(double response_ms) const {
  const double r = reward_from_response(opt_.sla, response_ms);
  return opt_.robustness.clamp ? std::max(r, opt_.robustness.floor) : r;
}

void RacAgent::observe(const config::Configuration& applied,
                       const env::PerfSample& sample) {
  state_.current = applied;
  state_.last_policy_switched = false;

  if (!std::isfinite(sample.response_ms) || sample.response_ms < 0.0) {
    // Monitoring garbage: hold the previous knowledge rather than feed it
    // into the experience store (whose contract rejects it) or the
    // calibration average. The detector counts-and-drops on its own.
    nonfinite_samples_->add(1);
    detector_.observe(sample.response_ms);
    return;
  }

  if (opt_.robustness.freeze_detect_after > 0) {
    // Bitwise comparison on purpose: a live (noisy) sensor essentially
    // never repeats a double exactly, a stuck one repeats it exactly.
    if (state_.freeze_has_last &&
        sample.response_ms == state_.freeze_last_raw) {
      ++state_.freeze_repeats;
    } else {
      state_.freeze_repeats = 0;
    }
    state_.freeze_has_last = true;
    state_.freeze_last_raw = sample.response_ms;
    if (state_.freeze_repeats >= opt_.robustness.freeze_detect_after) {
      // Stuck sensor: the reading repeats old state and carries no new
      // information -- ingesting it would teach the agent that nothing it
      // does changes anything.
      frozen_samples_->add(1);
      return;
    }
  }

  // Outlier-robust effective response: the reward / experience /
  // calibration paths see the median-filtered value, the violation
  // detector always sees the raw sample.
  double effective = sample.response_ms;
  if (opt_.robustness.median_of > 1) {
    state_.recent_responses.push_back(sample.response_ms);
    while (state_.recent_responses.size() >
           static_cast<std::size_t>(opt_.robustness.median_of)) {
      state_.recent_responses.pop_front();
    }
    std::vector<double> sorted(state_.recent_responses.begin(),
                               state_.recent_responses.end());
    std::sort(sorted.begin(), sorted.end());
    effective = sorted[sorted.size() / 2];
  }

  if (opt_.safe_fallback.enabled) {
    const double blowout =
        opt_.safe_fallback.blowout_factor * opt_.sla.reference_response_ms;
    state_.blowout_streak = effective > blowout ? state_.blowout_streak + 1 : 0;
  }

  state_.last_reward = reward_of(effective);
  state_.experience.record(applied, effective);

  // Update the surface calibration from this measurement (log-space ratio
  // so over- and under-prediction are symmetric).
  if (state_.active_policy.has_value() && effective > 0.0) {
    const double predicted =
        library_.at(*state_.active_policy).predict_response_ms(applied);
    if (predicted > 0.0) {
      state_.calibration_log.add(std::log(effective / predicted));
    }
  }

  // Context-change detection and policy switching (Algorithm 3 lines 6-8).
  if (detector_.observe(sample.response_ms)) {
    if (opt_.adaptive_policy_switching && !library_.empty()) {
      const auto match = library_.best_match(applied, effective);
      if (match.has_value()) {
        if (match != state_.active_policy) {
          ++state_.policy_switches;
          state_.last_policy_switched = true;
          policy_switch_count_->add(1);
        } else {
          // The detector fired but the best match is the policy already
          // active: the context moved within this policy's regime (a load
          // surge, not a mix change). The online-refined table was refined
          // for the PRE-change conditions, so re-seeding from the offline
          // prior below restores the library's knowledge of the stressed
          // region that online learning at the old operating point eroded.
          policy_reseed_count_->add(1);
        }
        load_policy(*match);
      }
    }
    // Stale measurements (and the old context's calibration) mislead
    // retraining after the environment changed.
    state_.experience.clear();
    state_.experience.record(applied, effective);
    state_.calibration_log.reset();
    if (state_.active_policy.has_value() && effective > 0.0) {
      const double predicted =
          library_.at(*state_.active_policy).predict_response_ms(applied);
      if (predicted > 0.0) {
        state_.calibration_log.add(std::log(effective / predicted));
      }
    }
  }

  if (opt_.online_learning) retrain();
}

AgentSnapshotHeader RacAgent::snapshot_header() const {
  AgentSnapshotHeader h;
  h.hyperparameters = hyperparameters_;
  h.library_size = library_.size();
  if (state_.active_policy.has_value()) {
    h.active_policy_context =
        env::context_token(library_.at(*state_.active_policy).context);
  }
  h.detector_history = detector_.history();
  h.detector_consecutive = detector_.consecutive_violations();
  h.detector_last_violation = detector_.last_was_violation();
  return h;
}

AgentSnapshot RacAgent::snapshot() const {
  return {snapshot_header(), state_};
}

void RacAgent::check_restorable(const AgentSnapshot& s,
                                const rl::QTable* base) const {
  // Hyperparameter drift would make the resumed run a silent hybrid of two
  // configurations, so every constant must match exactly.
  if (!(s.hyperparameters == hyperparameters_)) {
    throw std::invalid_argument(
        "RacAgent::restore: snapshot hyperparameters differ from this "
        "agent's options");
  }
  if (s.library_size != library_.size()) {
    throw std::invalid_argument(
        "RacAgent::restore: snapshot library size differs from this agent's "
        "library");
  }
  if (const auto index = s.state.active_policy) {
    if (*index >= library_.size()) {
      throw std::invalid_argument(
          "RacAgent::restore: active policy index outside the library");
    }
    const std::string live_context =
        env::context_token(library_.at(*index).context);
    if (live_context != s.active_policy_context) {
      throw std::invalid_argument(
          "RacAgent::restore: active policy context mismatch (snapshot '" +
          s.active_policy_context + "' vs library '" + live_context + "')");
    }
  }
  if ((base != nullptr) != s.state.base_fingerprint.has_value()) {
    throw std::invalid_argument(
        "RacAgent::restore: a base must be given exactly when the snapshot "
        "names one");
  }
  if (!s.state.qtable.fits_base(base)) {
    throw std::invalid_argument(
        "RacAgent::restore: the snapshot's Q default differs from its "
        "base's");
  }
}

void RacAgent::restore(const AgentSnapshot& s,
                       std::shared_ptr<const rl::QTable> base) {
  check_restorable(s, base.get());
  // Only the copy is re-based, and the detector validates before it changes
  // anything, so a throw still leaves the agent unchanged.
  AgentState state = s.state;
  state.qtable.overlay_on(std::move(base));
  detector_.restore(s.detector_history, s.detector_consecutive,
                    s.detector_last_violation);
  state_ = std::move(state);
}

void RacAgent::restore(const AgentSnapshot& s) {
  // The base is the active policy's table when the rows were written over
  // that very policy; check_restorable reports every other mismatch.
  std::shared_ptr<const rl::QTable> base;
  if (s.state.base_fingerprint.has_value() && s.state.active_policy &&
      *s.state.active_policy < library_.size()) {
    if (library_.fingerprint(*s.state.active_policy) !=
        *s.state.base_fingerprint) {
      throw std::invalid_argument(
          "RacAgent::restore: the snapshot's Q-rows overlay another "
          "library's policy (base fingerprint differs)");
    }
    base = library_.shared_table(*s.state.active_policy);
  }
  restore(s, std::move(base));
}

bool RacAgent::save_state(std::ostream& os) const {
  // The live record goes straight to the writer: a checkpoint costs the
  // rows it writes, not a copy of the table or the experience store.
  save_agent_snapshot(os, snapshot_header(), state_);
  return true;
}

void RacAgent::rebase_library(InitialPolicyLibrary library) {
  if (library.size() != library_.size()) {
    throw std::invalid_argument(
        "RacAgent::rebase_library: replacement library size differs");
  }
  for (std::size_t i = 0; i < library_.size(); ++i) {
    if (!(library.at(i).context == library_.at(i).context)) {
      throw std::invalid_argument(
          "RacAgent::rebase_library: context mismatch at policy " +
          std::to_string(i) + " ('" + env::context_token(library.at(i).context) +
          "' vs '" + env::context_token(library_.at(i).context) + "')");
    }
  }
  library_ = std::move(library);
}

void RacAgent::annotate(obs::TraceEvent& event) const {
  event.action = state_.last_selection.action.to_string();
  event.explored = state_.last_selection.explored;
  event.q_value = state_.last_selection.q_value;
  event.reward = state_.last_reward;
  event.sla_margin_ms = opt_.sla.reference_response_ms - event.response_ms;
  event.active_policy = state_.active_policy.has_value()
                            ? static_cast<int>(*state_.active_policy)
                            : -1;
  event.policy_switched = state_.last_policy_switched;
  event.violation = detector_.last_was_violation();
  event.consecutive_violations = detector_.consecutive_violations();
  event.safe_fallback = state_.last_safe_fallback;
}

}  // namespace rac::core
