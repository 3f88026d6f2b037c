// Environment backed by the discrete-event ThreeTierSystem.
//
// The system persists across measurement intervals: pools, sessions and
// connections carry over, exactly like the live testbed the paper's agent
// reconfigures in place. A context change reallocates the app VM and/or
// swaps the traffic mix (the latter restarts the browser population, as a
// traffic change at a load balancer would).
//
// With a traffic model installed (workload/dynamic.hpp), each interval
// resolves the interval's TrafficTarget and rebuilds the simulator when
// the target changes -- a population change at the load balancer, just
// like a mix switch. An unchanged target (including the one-hot identity
// an empty model emits) keeps the live system, so static traffic is
// bitwise the legacy behaviour.
//
// The live system cannot be copied, so clone_with_seed returns nullptr and
// offline policy initialization rejects a SimEnv.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "env/environment.hpp"
#include "tiersim/web_system.hpp"

namespace rac::env {

struct SimEnvOptions {
  int num_clients = 400;
  double warmup_s = 60.0;    // settle time after a reconfiguration
  double measure_s = 240.0;  // observation window (paper: 5-minute interval)
  std::uint64_t seed = 42;
  /// Metrics destination (also forwarded to the simulator); nullptr means
  /// the process-wide default registry.
  obs::Registry* registry = nullptr;
};

class SimEnv : public Environment {
 public:
  explicit SimEnv(const SystemContext& context, const SimEnvOptions& options = {});

  Measurement measure_interval(
      const config::Configuration& configuration) override;
  void set_context(const SystemContext& context) override;
  SystemContext context() const override { return ctx_; }
  TrafficCursor* traffic_cursor() override { return &traffic_; }

  /// Full simulator measurement of the most recent interval.
  const tiersim::Measurement& last_measurement() const noexcept {
    return last_;
  }

 private:
  SystemContext ctx_;
  SimEnvOptions opt_;
  std::uint64_t next_seed_;
  std::unique_ptr<tiersim::ThreeTierSystem> system_;
  tiersim::Measurement last_{};
  TrafficCursor traffic_;
  obs::Counter* measurements_ = nullptr;
  obs::Histogram* measure_us_ = nullptr;
  /// Target the live system_ was built under (nullopt: static legacy
  /// population). Measuring rebuilds when the interval's target differs.
  std::optional<workload::TrafficTarget> applied_target_;

  void rebuild(const config::Configuration& configuration);
};

}  // namespace rac::env
