#include "env/sim_env.hpp"

#include <stdexcept>

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
  if (opt_.num_clients < 1) {
    throw std::invalid_argument("SimEnv: need at least one client");
  }
  obs::Registry& reg = obs::registry_or_default(opt_.registry);
  measurements_ = &reg.counter("env.sim.measurements");
  measure_us_ = &reg.histogram("env.sim.measure_us", obs::latency_us_bounds());
}

void SimEnv::rebuild(const config::Configuration& configuration) {
  tiersim::SimSetup setup;
  setup.configuration = configuration;
  setup.traffic = applied_target_;
  setup.web_vm = web_vm_spec();
  setup.app_vm = vm_spec(ctx_.level);
  setup.num_clients = opt_.num_clients;
  setup.seed = next_seed_++;
  setup.registry = opt_.registry;
  system_ = std::make_unique<tiersim::ThreeTierSystem>(kSystem, setup);
}

Measurement SimEnv::measure_interval(
    const config::Configuration& configuration) {
  measurements_->add(1);
  const obs::ProfileScope profile("env.sim.measure", *measure_us_);
  const workload::TrafficTarget target = traffic_.next(ctx_.mix);

  // A changed target replaces the browser population, like a mix switch at
  // the load balancer. An unchanged one (bit for bit) keeps the live
  // system's state.
  if (system_ == nullptr || !workload::same_target(target, applied_target_)) {
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
    // client switch in any meaningful way). Without a non-empty model the
    // new mix's one-hot target is the population, which the next interval
    // resolves too. With one, the rebuild keeps the applied target; the
    // next interval resolves the model's target under the new mix and
    // rebuilds again if it differs.
    if (!traffic_.active()) {
      applied_target_ = workload::one_hot_target(ctx_.mix);
    }
    rebuild(system_->configuration());
  } else {
    system_->set_app_vm(vm_spec(ctx_.level));
  }
}

}  // namespace rac::env
