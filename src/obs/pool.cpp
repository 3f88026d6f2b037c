#include "obs/pool.hpp"

#include "obs/metrics.hpp"

namespace rac::obs {

util::PoolTelemetry pool_telemetry(Registry& registry) {
  util::PoolTelemetry telemetry;
  telemetry.queue_depth = [&gauge = registry.gauge("util.pool.queue_depth")](
                              std::size_t depth) {
    gauge.set(static_cast<double>(depth));
  };
  telemetry.task_us = [&histogram = registry.histogram("util.pool.task_us",
                                                       latency_us_bounds()),
                       &tasks = registry.counter("util.pool.tasks")](
                          double us) {
    histogram.observe(us);
    tasks.add(1);
  };
  return telemetry;
}

util::ThreadPool& shared_pool() {
  static util::ThreadPool* pool = [] {
    auto* created =
        new util::ThreadPool(util::default_thread_count(),
                             pool_telemetry(default_registry()));
    default_registry()
        .gauge("util.pool.threads")
        .set(static_cast<double>(created->size()));
    return created;
  }();
  return *pool;
}

}  // namespace rac::obs
