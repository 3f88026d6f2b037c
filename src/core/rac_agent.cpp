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

}  // namespace

RacAgent::RacAgent(const RacOptions& options, InitialPolicyLibrary library,
                   std::optional<std::size_t> initial_policy)
    : opt_(validated(options)),
      library_(std::move(library)),
      detector_(with_registry(options.violation, options.registry)),
      online_policy_(options.online_epsilon),
      rng_(options.seed) {
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
  // The management loop starts from the running system's configuration,
  // which is the Table-1 default.
  current_ = config::Configuration::defaults();
}

void RacAgent::load_policy(std::size_t index) {
  const obs::ProfileScope profile("rac.load_policy");
  qtable_.rebase(library_.shared_table(index));
  active_policy_ = index;
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
  last_safe_fallback_ = false;
  if (first_decide_) {
    // Measure the starting configuration before acting (the agent needs a
    // baseline observation).
    first_decide_ = false;
    last_selection_ = {config::Action::keep(), false,
                       qtable_.q(current_, config::Action::keep())};
    return current_;
  }
  if (opt_.safe_fallback.enabled &&
      blowout_streak_ >= opt_.safe_fallback.after_blowouts) {
    // The Q-table steered us into (or failed to escape) sustained SLA
    // blowouts; revert to the best configuration we have actually measured
    // instead of trusting possibly poisoned values. Defaults when nothing
    // was measured yet -- the known-safe Table-1 starting point.
    current_ = experience_.best().value_or(config::Configuration::defaults());
    last_selection_ = {config::Action::keep(), false,
                       qtable_.q(current_, config::Action::keep())};
    blowout_streak_ = 0;
    last_safe_fallback_ = true;
    ++safe_fallbacks_;
    safe_fallback_count_->add(1);
    return current_;
  }
  {
    const obs::ProfileScope profile("rac.select", *select_us_);
    last_selection_ = online_policy_.select_detailed(qtable_, current_, rng_);
  }
  if (last_selection_.explored) explorations_->add(1);
  current_ = config::ConfigSpace::apply(current_, last_selection_.action);
  return current_;
}

double RacAgent::lookup_response(const config::Configuration& c) const {
  if (const auto measured = experience_.response_ms(c)) return *measured;
  if (active_policy_.has_value()) {
    const double predicted =
        library_.at(*active_policy_).predict_response_ms(c);
    const double calibration =
        calibration_log_.empty() ? 1.0 : std::exp(calibration_log_.value());
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
      experience_.sorted_configurations();
  std::vector<config::Configuration> fallback;
  if (states.empty()) {
    fallback.push_back(current_);
    states = fallback;
  }
  const rl::RewardFn reward = [this](const config::Configuration& c) {
    return reward_of(lookup_response(c));
  };
  rl::batch_train(qtable_, states, reward, opt_.online_td, rng_,
                  opt_.registry);
}

double RacAgent::reward_of(double response_ms) const {
  const double r = reward_from_response(opt_.sla, response_ms);
  return opt_.robustness.clamp ? std::max(r, opt_.robustness.floor) : r;
}

void RacAgent::observe(const config::Configuration& applied,
                       const env::PerfSample& sample) {
  current_ = applied;
  last_policy_switched_ = false;

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
    if (freeze_has_last_ &&
        sample.response_ms == freeze_last_raw_) {
      ++freeze_repeats_;
    } else {
      freeze_repeats_ = 0;
    }
    freeze_has_last_ = true;
    freeze_last_raw_ = sample.response_ms;
    if (freeze_repeats_ >= opt_.robustness.freeze_detect_after) {
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
    recent_responses_.push_back(sample.response_ms);
    while (recent_responses_.size() >
           static_cast<std::size_t>(opt_.robustness.median_of)) {
      recent_responses_.pop_front();
    }
    std::vector<double> sorted(recent_responses_.begin(),
                               recent_responses_.end());
    std::sort(sorted.begin(), sorted.end());
    effective = sorted[sorted.size() / 2];
  }

  if (opt_.safe_fallback.enabled) {
    const double blowout =
        opt_.safe_fallback.blowout_factor * opt_.sla.reference_response_ms;
    blowout_streak_ = effective > blowout ? blowout_streak_ + 1 : 0;
  }

  last_reward_ = reward_of(effective);
  experience_.record(applied, effective);

  // Update the surface calibration from this measurement (log-space ratio
  // so over- and under-prediction are symmetric).
  if (active_policy_.has_value() && effective > 0.0) {
    const double predicted =
        library_.at(*active_policy_).predict_response_ms(applied);
    if (predicted > 0.0) {
      calibration_log_.add(std::log(effective / predicted));
    }
  }

  // Context-change detection and policy switching (Algorithm 3 lines 6-8).
  if (detector_.observe(sample.response_ms)) {
    if (opt_.adaptive_policy_switching && !library_.empty()) {
      const auto match = library_.best_match(applied, effective);
      if (match.has_value()) {
        if (match != active_policy_) {
          ++policy_switches_;
          last_policy_switched_ = true;
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
    experience_.clear();
    experience_.record(applied, effective);
    calibration_log_.reset();
    if (active_policy_.has_value() && effective > 0.0) {
      const double predicted =
          library_.at(*active_policy_).predict_response_ms(applied);
      if (predicted > 0.0) {
        calibration_log_.add(std::log(effective / predicted));
      }
    }
  }

  if (opt_.online_learning) retrain();
}

AgentSnapshot RacAgent::snapshot() const {
  AgentSnapshot s = snapshot_except_table();
  s.qtable = qtable_;
  return s;
}

AgentSnapshot RacAgent::snapshot_except_table() const {
  AgentSnapshot s;
  s.sla_reference_response_ms = opt_.sla.reference_response_ms;
  s.online_epsilon = opt_.online_epsilon;
  s.online_td = opt_.online_td;
  s.violation_window = opt_.violation.window;
  s.violation_threshold = opt_.violation.threshold;
  s.violation_consecutive_limit = opt_.violation.consecutive_limit;
  s.violation_min_history = opt_.violation.min_history;
  s.online_learning = opt_.online_learning;
  s.adaptive_policy_switching = opt_.adaptive_policy_switching;
  s.robustness_clamp = opt_.robustness.clamp;
  s.robustness_floor = opt_.robustness.floor;
  s.robustness_median_of = opt_.robustness.median_of;
  s.robustness_freeze_after = opt_.robustness.freeze_detect_after;
  s.safe_fallback_enabled = opt_.safe_fallback.enabled;
  s.safe_fallback_after = opt_.safe_fallback.after_blowouts;
  s.safe_fallback_factor = opt_.safe_fallback.blowout_factor;
  s.seed = opt_.seed;
  s.library_size = library_.size();
  s.experience_blend = experience_.blend();
  s.has_active_policy = active_policy_.has_value();
  if (s.has_active_policy) {
    s.active_policy = *active_policy_;
    s.active_policy_context =
        env::context_token(library_.at(*active_policy_).context);
  }
  const auto entries = experience_.entries();
  s.experience.assign(entries.begin(), entries.end());
  s.detector_history = detector_.history();
  s.detector_consecutive = detector_.consecutive_violations();
  s.detector_last_violation = detector_.last_was_violation();
  s.rng = rng_.state();
  s.current = current_;
  s.first_decide = first_decide_;
  s.policy_switches = policy_switches_;
  s.last_action_id = last_selection_.action.id();
  s.last_explored = last_selection_.explored;
  s.last_q_value = last_selection_.q_value;
  s.last_policy_switched = last_policy_switched_;
  s.last_reward = last_reward_;
  s.calibration_initialized = !calibration_log_.empty();
  s.calibration_value = calibration_log_.value();
  s.recent_responses.assign(recent_responses_.begin(),
                            recent_responses_.end());
  s.blowout_streak = blowout_streak_;
  s.last_safe_fallback = last_safe_fallback_;
  s.safe_fallbacks = safe_fallbacks_;
  s.freeze_has_last = freeze_has_last_;
  s.freeze_last_raw = freeze_last_raw_;
  s.freeze_repeats = freeze_repeats_;
  return s;
}

void RacAgent::restore(const AgentSnapshot& s) {
  // Hyperparameter drift would make the resumed run a silent hybrid of two
  // configurations, so every constant must match exactly. (Bitwise double
  // comparison is deliberate: the snapshot stores exact hex values.)
  const bool hyperparams_match =
      s.sla_reference_response_ms == opt_.sla.reference_response_ms &&
      s.online_epsilon == opt_.online_epsilon &&
      s.online_td.alpha == opt_.online_td.alpha &&
      s.online_td.gamma == opt_.online_td.gamma &&
      s.online_td.epsilon == opt_.online_td.epsilon &&
      s.online_td.theta == opt_.online_td.theta &&
      s.online_td.trajectory_limit == opt_.online_td.trajectory_limit &&
      s.online_td.max_sweeps == opt_.online_td.max_sweeps &&
      s.violation_window == opt_.violation.window &&
      s.violation_threshold == opt_.violation.threshold &&
      s.violation_consecutive_limit == opt_.violation.consecutive_limit &&
      s.violation_min_history == opt_.violation.min_history &&
      s.online_learning == opt_.online_learning &&
      s.adaptive_policy_switching == opt_.adaptive_policy_switching &&
      s.robustness_clamp == opt_.robustness.clamp &&
      s.robustness_floor == opt_.robustness.floor &&
      s.robustness_median_of == opt_.robustness.median_of &&
      s.robustness_freeze_after == opt_.robustness.freeze_detect_after &&
      s.safe_fallback_enabled == opt_.safe_fallback.enabled &&
      s.safe_fallback_after == opt_.safe_fallback.after_blowouts &&
      s.safe_fallback_factor == opt_.safe_fallback.blowout_factor &&
      s.seed == opt_.seed && s.experience_blend == experience_.blend();
  if (!hyperparams_match) {
    throw std::invalid_argument(
        "RacAgent::restore: snapshot hyperparameters differ from this "
        "agent's options");
  }
  if (s.library_size != library_.size()) {
    throw std::invalid_argument(
        "RacAgent::restore: snapshot library size differs from this agent's "
        "library");
  }
  if (s.has_active_policy) {
    if (s.active_policy >= library_.size()) {
      throw std::invalid_argument(
          "RacAgent::restore: active policy index outside the library");
    }
    const std::string live_context =
        env::context_token(library_.at(s.active_policy).context);
    if (live_context != s.active_policy_context) {
      throw std::invalid_argument(
          "RacAgent::restore: active policy context mismatch (snapshot '" +
          s.active_policy_context + "' vs library '" + live_context + "')");
    }
  }
  // Validating restores first (they throw) keeps the agent unchanged on
  // failure paths that are reachable from on-disk data.
  rl::ExperienceStore experience(experience_.blend());
  experience.restore(s.experience);
  util::Rng rng = rng_;
  rng.restore(s.rng);
  detector_.restore(s.detector_history, s.detector_consecutive,
                    s.detector_last_violation);
  experience_ = std::move(experience);
  rng_ = rng;
  qtable_ = s.qtable;
  active_policy_ = s.has_active_policy
                       ? std::optional<std::size_t>(s.active_policy)
                       : std::nullopt;
  current_ = s.current;
  first_decide_ = s.first_decide;
  policy_switches_ = s.policy_switches;
  last_selection_ = {config::Action(s.last_action_id), s.last_explored,
                     s.last_q_value};
  last_policy_switched_ = s.last_policy_switched;
  last_reward_ = s.last_reward;
  calibration_log_.restore(s.calibration_value, s.calibration_initialized);
  recent_responses_.assign(s.recent_responses.begin(),
                           s.recent_responses.end());
  blowout_streak_ = s.blowout_streak;
  last_safe_fallback_ = s.last_safe_fallback;
  safe_fallbacks_ = s.safe_fallbacks;
  freeze_has_last_ = s.freeze_has_last;
  freeze_last_raw_ = s.freeze_last_raw;
  freeze_repeats_ = s.freeze_repeats;
}

bool RacAgent::save_state(std::ostream& os) const {
  // The live table goes straight to the writer: a checkpoint costs the
  // rows it writes, not a copy of every row the table holds.
  save_agent_snapshot(os, snapshot_except_table(), qtable_);
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
  event.action = last_selection_.action.to_string();
  event.explored = last_selection_.explored;
  event.q_value = last_selection_.q_value;
  event.reward = last_reward_;
  event.sla_margin_ms = opt_.sla.reference_response_ms - event.response_ms;
  event.active_policy =
      active_policy_.has_value() ? static_cast<int>(*active_policy_) : -1;
  event.policy_switched = last_policy_switched_;
  event.violation = detector_.last_was_violation();
  event.consecutive_violations = detector_.consecutive_violations();
  event.safe_fallback = last_safe_fallback_;
}

}  // namespace rac::core
