// The traffic cursor and the Environment base's traffic helpers.
#include "env/environment.hpp"

#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/lineio.hpp"

namespace rac::env {

std::uint64_t TrafficCursor::read_position(std::istream& is,
                                           std::string_view what) {
  const std::int64_t position = util::read_i64(is, what);
  if (position < 0 || position == std::numeric_limits<std::int64_t>::max()) {
    throw std::runtime_error(std::string(what) +
                             ": traffic cursor outside [0, INT64_MAX)");
  }
  return static_cast<std::uint64_t>(position);
}

TrafficCursor::TrafficCursor(obs::Registry* registry) {
  obs::Registry& reg = obs::registry_or_default(registry);
  intervals_ = &reg.counter("core.traffic.intervals");
  concurrency_scale_ = &reg.gauge("core.traffic.concurrency_scale");
  think_scale_ = &reg.gauge("core.traffic.think_scale");
}

workload::TrafficTarget TrafficCursor::next(workload::MixType mix) {
  if (model_ == nullptr) return workload::one_hot_target(mix);
  const std::int64_t interval = static_cast<std::int64_t>(position_++);
  if (model_->empty()) return workload::one_hot_target(mix);
  const workload::TrafficTarget target = model_->target_at(interval, mix);
  intervals_->add(1);
  concurrency_scale_->set(target.concurrency_scale);
  think_scale_->set(target.think_scale);
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

}  // namespace rac::env
