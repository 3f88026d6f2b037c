#include "env/sim_env.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace rac::env {

namespace {
/// Mechanism constants shared with the analytic model.
constexpr tiersim::SystemParams kSystem{};
}  // namespace

SimEnv::SimEnv(const SystemContext& context, const SimEnvOptions& options)
    : ctx_(context),
      opt_(options),
      next_seed_(options.seed),
      traffic_(options.registry) {
  obs::Registry& reg = obs::registry_or_default(opt_.registry);
  measurements_ = &reg.counter("env.sim.measurements");
  measure_us_ = &reg.histogram("env.sim.measure_us", obs::latency_us_bounds());
}

void SimEnv::rebuild(const config::Configuration& configuration) {
  tiersim::SimSetup setup;
  setup.configuration = configuration;
  setup.mix = ctx_.mix;
  setup.web_vm = web_vm_spec();
  setup.app_vm = vm_spec(ctx_.level);
  setup.num_clients = opt_.num_clients;
  setup.seed = next_seed_++;
  setup.registry = opt_.registry;
  if (applied_target_.has_value()) {
    setup.mix = workload::dominant_mix(*applied_target_);
    setup.mix_weights = applied_target_->mix_weights;
    setup.think_scale = applied_target_->think_scale;
    setup.num_clients = std::max(
        1, static_cast<int>(std::lround(
               static_cast<double>(opt_.num_clients) *
               applied_target_->concurrency_scale)));
  }
  system_ = std::make_unique<tiersim::ThreeTierSystem>(kSystem, setup);
}

Measurement SimEnv::measure_interval(
    const config::Configuration& configuration) {
  measurements_->add(1);
  const obs::ProfileScope profile("env.sim.measure", *measure_us_);
  const std::optional<workload::TrafficTarget> target = traffic_.next(ctx_.mix);

  // A changed target replaces the browser population, like a mix switch at
  // the load balancer. An unchanged one (bit-for-bit, so the one-hot
  // identity always matches itself) keeps the live system's state.
  const bool target_changed =
      target.has_value() != applied_target_.has_value() ||
      (target.has_value() &&
       !workload::same_target(*target, *applied_target_));
  if (system_ == nullptr || target_changed) {
    applied_target_ = target;
    rebuild(configuration);
  } else if (!(system_->configuration() == configuration)) {
    system_->reconfigure(configuration);
  }
  last_ = system_->run(opt_.warmup_s, opt_.measure_s);
  Measurement measurement;
  measurement.sample.response_ms = last_.mean_response_ms;
  measurement.sample.throughput_rps = last_.throughput_rps;
  return measurement;
}

void SimEnv::set_context(const SystemContext& context) {
  if (context == ctx_) return;
  const bool mix_changed = context.mix != ctx_.mix;
  ctx_ = context;
  if (system_ == nullptr) return;
  if (mix_changed) {
    // A traffic-mix change replaces the browser population: rebuild with
    // the current configuration (server-side state does not survive the
    // client switch in any meaningful way). With a target applied the
    // rebuild keeps the target's population; the next interval resolves
    // the new base mix's target and rebuilds again if it differs.
    rebuild(system_->configuration());
  } else {
    system_->set_app_vm(vm_spec(ctx_.level));
  }
}

}  // namespace rac::env
