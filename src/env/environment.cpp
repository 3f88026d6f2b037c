// The traffic cursor and the Environment base's traffic and overlay
// helpers.
#include "env/environment.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace rac::env {

TrafficCursor::TrafficCursor(obs::Registry* registry) {
  obs::Registry& reg = obs::registry_or_default(registry);
  intervals_ = &reg.counter("core.traffic.intervals");
  overlays_ = &reg.counter("core.traffic.overlays");
  concurrency_scale_ = &reg.gauge("core.traffic.concurrency_scale");
  think_scale_ = &reg.gauge("core.traffic.think_scale");
}

std::optional<workload::TrafficTarget> TrafficCursor::next(
    workload::MixType mix, const workload::TrafficTarget* overlay) {
  std::optional<workload::TrafficTarget> target;
  if (overlay != nullptr) {
    target = *overlay;
    overlays_->add(1);
  } else if (model_ != nullptr && !model_->empty()) {
    target = model_->target_at(static_cast<std::int64_t>(position_), mix);
  }
  if (model_ != nullptr) ++position_;
  if (target.has_value()) {
    intervals_->add(1);
    concurrency_scale_->set(target->concurrency_scale);
    think_scale_->set(target->think_scale);
  }
  return target;
}

void Environment::set_traffic_model(
    std::shared_ptr<const workload::TrafficModel> model) {
  if (TrafficCursor* c = traffic_cursor()) {
    c->install(std::move(model));
  } else if (model != nullptr) {
    throw std::invalid_argument(
        "Environment::set_traffic_model: this environment does not support "
        "dynamic traffic models");
  }
}

void Environment::seek_traffic(std::uint64_t interval) {
  if (TrafficCursor* c = traffic_cursor()) {
    c->seek(interval);
  } else if (interval != 0) {
    throw std::invalid_argument(
        "Environment::seek_traffic: this environment has no traffic cursor");
  }
}

Measurement Environment::measure_with_context_swap(
    const config::Configuration& configuration,
    const workload::TrafficTarget& overlay) {
  // set_context is a no-op when the mix already matches, and the scheduled
  // context is restored unconditionally.
  const SystemContext scheduled = context();
  SystemContext transient = scheduled;
  transient.mix = workload::dominant_mix(overlay);
  set_context(transient);
  Measurement measurement = measure_interval(configuration, nullptr);
  set_context(scheduled);
  return measurement;
}

}  // namespace rac::env
