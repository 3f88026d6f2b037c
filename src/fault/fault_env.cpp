#include "fault/fault_env.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/lineio.hpp"
#include "util/rng.hpp"

namespace rac::fault {

namespace {

void validate(const env::Environment* inner, const FaultyEnvOptions& o) {
  if (inner == nullptr) {
    throw std::invalid_argument("FaultyEnv: null inner environment");
  }
  const auto check_prob = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(std::string("FaultyEnv: ") + what +
                                  " outside [0, 1]");
    }
  };
  check_prob(o.profile.drop_prob, "drop_prob");
  check_prob(o.profile.spike_prob, "spike_prob");
  check_prob(o.profile.freeze_prob, "freeze_prob");
  check_prob(o.profile.reconfig_fail_prob, "reconfig_fail_prob");
  check_prob(o.profile.surge_prob, "surge_prob");
  if (o.profile.spike_multiplier <= 0.0) {
    throw std::invalid_argument("FaultyEnv: non-positive spike_multiplier");
  }
  if (o.profile.surge_prob > 0.0 && !o.profile.surge_context.has_value()) {
    throw std::invalid_argument(
        "FaultyEnv: surge_prob set without a profile surge_context");
  }
  for (const FaultEpisode& e : o.schedule) {
    if (e.start_interval < 0) {
      throw std::invalid_argument("FaultyEnv: negative episode start");
    }
    if (e.duration < 1) {
      throw std::invalid_argument("FaultyEnv: non-positive episode duration");
    }
    if (e.kind == FaultKind::kSpike && e.magnitude < 0.0) {
      throw std::invalid_argument("FaultyEnv: negative spike magnitude");
    }
    if (e.kind == FaultKind::kSurge && !e.surge_context.has_value() &&
        !o.profile.surge_context.has_value()) {
      throw std::invalid_argument(
          "FaultyEnv: surge episode with no surge context anywhere");
    }
  }
}

}  // namespace

std::string fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kSpike: return "spike";
    case FaultKind::kFreeze: return "freeze";
    case FaultKind::kReconfigFail: return "reconfig-fail";
    case FaultKind::kSurge: return "surge";
  }
  throw std::invalid_argument("fault_kind_name: unknown kind");
}

std::string FaultDecision::note() const {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (drop) append("drop");
  if (spike) append("spike");
  if (freeze) append("freeze");
  if (reconfig_fail) append("reconfig-fail");
  if (surge) append("surge");
  return out;
}

FaultyEnv::FaultyEnv(std::unique_ptr<env::Environment> inner,
                     FaultyEnvOptions options)
    : inner_(std::move(inner)), options_(std::move(options)) {
  validate(inner_.get(), options_);
  obs::Registry& registry = obs::registry_or_default(options_.registry);
  intervals_ = &registry.counter("core.fault.intervals");
  drops_ = &registry.counter("core.fault.drops");
  spikes_ = &registry.counter("core.fault.spikes");
  freezes_ = &registry.counter("core.fault.freezes");
  reconfig_failures_ = &registry.counter("core.fault.reconfig_failures");
  surges_ = &registry.counter("core.fault.surges");
}

FaultDecision FaultyEnv::faults_at(int interval) const {
  FaultDecision d;
  d.spike_multiplier = options_.profile.spike_multiplier;
  d.surge_context = options_.profile.surge_context;
  for (const FaultEpisode& e : options_.schedule) {
    if (interval < e.start_interval ||
        interval >= e.start_interval + e.duration) {
      continue;
    }
    switch (e.kind) {
      case FaultKind::kDrop: d.drop = true; break;
      case FaultKind::kSpike:
        d.spike = true;
        if (e.magnitude > 0.0) d.spike_multiplier = e.magnitude;
        break;
      case FaultKind::kFreeze: d.freeze = true; break;
      case FaultKind::kReconfigFail: d.reconfig_fail = true; break;
      case FaultKind::kSurge:
        d.surge = true;
        if (e.surge_context.has_value()) d.surge_context = e.surge_context;
        break;
    }
  }
  // One throwaway generator per (interval, kind): the draw depends only on
  // the fault seed and those two indices, never on how many draws anything
  // else made -- this is what makes the fault script reproducible across
  // runs and checkpoint boundaries.
  const auto draw = [&](FaultKind kind, double p) {
    if (p <= 0.0) return false;
    util::Rng rng(util::derive_seed(
        util::derive_seed(options_.seed, static_cast<std::uint64_t>(interval)),
        static_cast<std::uint64_t>(kind)));
    return rng.bernoulli(p);
  };
  d.drop = d.drop || draw(FaultKind::kDrop, options_.profile.drop_prob);
  d.spike = d.spike || draw(FaultKind::kSpike, options_.profile.spike_prob);
  d.freeze = d.freeze || draw(FaultKind::kFreeze, options_.profile.freeze_prob);
  d.reconfig_fail =
      d.reconfig_fail ||
      draw(FaultKind::kReconfigFail, options_.profile.reconfig_fail_prob);
  d.surge = d.surge || draw(FaultKind::kSurge, options_.profile.surge_prob);
  return d;
}

env::Measurement FaultyEnv::measure_interval(
    const config::Configuration& requested) {
  const int interval = state_.interval;
  ++state_.interval;
  const FaultDecision d = faults_at(interval);
  intervals_->add(1);
  env::Measurement measurement;
  measurement.fault_note = d.note();

  // Transient reconfiguration failure: the actuation is lost and the
  // system keeps running whatever was applied last. On the very first
  // interval there is nothing "previous", so the request goes through.
  config::Configuration effective = requested;
  if (d.reconfig_fail && state_.has_applied) {
    effective = state_.applied_configuration;
    reconfig_failures_->add(1);
  } else {
    state_.has_applied = true;
    state_.applied_configuration = requested;
  }

  // The system always actually runs the interval -- the truth is recorded
  // even when the monitor then drops or distorts the report. A surge
  // interval runs under the surge context, and the scheduled context is
  // restored immediately after.
  env::PerfSample truth;
  if (d.surge && d.surge_context.has_value()) {
    const env::SystemContext scheduled = inner_->context();
    inner_->set_context(*d.surge_context);
    truth = inner_->measure(effective);
    inner_->set_context(scheduled);
    surges_->add(1);
  } else {
    truth = inner_->measure(effective);
  }
  true_history_.push_back(truth);

  if (d.drop) {
    // The report never arrives; last_reported is deliberately untouched
    // (a later freeze repeats the last value that WAS reported).
    drops_->add(1);
    measurement.lost = true;
    measurement.sample = options_.timeout_sentinel;
    return measurement;
  }

  env::PerfSample reported = truth;
  if (d.freeze && state_.has_last_reported) {
    reported = state_.last_reported;
    freezes_->add(1);
  } else if (d.spike) {
    reported.response_ms *= d.spike_multiplier;
    spikes_->add(1);
  }
  state_.has_last_reported = true;
  state_.last_reported = reported;
  measurement.sample = reported;
  return measurement;
}

void FaultyEnv::set_context(const env::SystemContext& context) {
  inner_->set_context(context);
}

env::SystemContext FaultyEnv::context() const { return inner_->context(); }

void FaultyEnv::restore(const FaultyEnvState& state) {
  if (state.interval < 0) {
    throw std::invalid_argument("FaultyEnv::restore: negative interval");
  }
  state_ = state;
}

void save_faulty_env_state(std::ostream& os, const FaultyEnvState& state) {
  os << "interval " << util::format_i64(state.interval) << "\n";
  os << "has_last_reported " << util::bool_token(state.has_last_reported)
     << "\n";
  os << "last_reported " << util::format_double(state.last_reported.response_ms)
     << " " << util::format_double(state.last_reported.throughput_rps) << "\n";
  os << "has_applied " << util::bool_token(state.has_applied) << "\n";
  os << "applied ";
  config::write_configuration(os, state.applied_configuration);
  os << "\n";
}

FaultyEnvState load_faulty_env_state(std::istream& is) {
  constexpr const char* kWhat = "faulty-env state";
  FaultyEnvState state;
  util::expect_token(is, "interval", kWhat);
  state.interval = util::read_int(is, "interval");
  // The next measurement advances the interval, so INT_MAX is malformed.
  if (state.interval < 0 ||
      state.interval == std::numeric_limits<int>::max()) {
    throw std::runtime_error("faulty-env state: interval outside [0, INT_MAX)");
  }
  util::expect_token(is, "has_last_reported", kWhat);
  state.has_last_reported = util::read_bool(is, "has_last_reported");
  util::expect_token(is, "last_reported", kWhat);
  state.last_reported.response_ms =
      util::read_double(is, "last_reported response");
  state.last_reported.throughput_rps =
      util::read_double(is, "last_reported throughput");
  util::expect_token(is, "has_applied", kWhat);
  state.has_applied = util::read_bool(is, "has_applied");
  util::expect_token(is, "applied", kWhat);
  state.applied_configuration = config::read_configuration(is, "applied");
  return state;
}

}  // namespace rac::fault
