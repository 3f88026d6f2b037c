// The environment abstraction the RAC agent interacts with.
//
// The agent is non-intrusive: all it can do is push a configuration and
// observe application-level performance (response time / throughput) over
// a measurement interval -- exactly the interface of the paper's
// performance monitor + configuration controller. Two implementations:
//
//   * AnalyticEnv -- a fast queueing-model twin (exact MVA over the same
//     mechanism constants as the simulator); used for the long RL
//     experiment sweeps.
//   * SimEnv -- the discrete-event ThreeTierSystem; the ground-truth
//     substrate.
//
// Load reaches an environment through its context and its traffic model
// only, and reaches a measurement one way: as the interval's
// workload::TrafficTarget from TrafficCursor::next. A static mix is its
// one-hot target. measure() and the traffic methods are non-virtual
// conveniences over measure_interval() and traffic_cursor().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "config/configuration.hpp"
#include "env/context.hpp"
#include "workload/dynamic.hpp"

namespace rac::obs {
class Counter;
class Gauge;
class Histogram;
class Registry;
}  // namespace rac::obs

namespace rac::env {

/// One measurement interval's application-level observation.
struct PerfSample {
  double response_ms = 0.0;    // mean end-to-end response time
  double throughput_rps = 0.0; // completed requests per second
};

/// One measurement interval as the monitor delivered it. `lost` (monitor
/// timeout, dropped sample) is set only by fault-injecting decorators, and
/// `sample` then holds their timeout sentinel.
struct Measurement {
  PerfSample sample;
  bool lost = false;
  std::string fault_note;  // injected faults ("drop+spike"); "" when clean
};

/// An environment's dynamic-traffic state: the installed model (shared
/// const state), the cursor and the core.traffic.* metrics. Checkpoints
/// persist the cursor (rac-checkpoint v2 / rac-fleet-checkpoint v3) so a
/// restored run resumes mid-day. It counts *measurements*, not loop
/// iterations -- the runner's robustness retries each advance it.
class TrafficCursor {
 public:
  explicit TrafficCursor(obs::Registry* registry);

  /// Install (or clear, with nullptr) a model and rewind to interval 0.
  void install(std::shared_ptr<const workload::TrafficModel> model) {
    model_ = std::move(model);
    position_ = 0;
  }
  const std::shared_ptr<const workload::TrafficModel>& model() const noexcept {
    return model_;
  }
  /// True when a non-empty model drives the targets.
  bool active() const noexcept { return model_ != nullptr && !model_->empty(); }
  std::uint64_t position() const noexcept { return position_; }
  /// Reads a persisted position. The model indexes intervals as
  /// std::int64_t and the next interval advances the cursor, so a position
  /// outside [0, INT64_MAX) is malformed input: it throws
  /// std::runtime_error naming `what`.
  static std::uint64_t read_position(std::istream& is, std::string_view what);
  void seek(std::uint64_t position) noexcept { position_ = position; }

  /// This interval's target: the model's emission at the cursor under the
  /// scheduled `mix`, or one_hot_target(mix) with no or an empty model.
  /// Any installed model advances the cursor; only a non-empty one counts
  /// in core.traffic.*.
  workload::TrafficTarget next(workload::MixType mix);

 private:
  std::shared_ptr<const workload::TrafficModel> model_;
  std::uint64_t position_ = 0;
  obs::Counter* intervals_ = nullptr;
  obs::Gauge* concurrency_scale_ = nullptr;
  obs::Gauge* think_scale_ = nullptr;
};

class Environment {
 public:
  virtual ~Environment() = default;

  /// Apply `configuration` and measure one interval under the current
  /// context and, for an environment with a traffic cursor, the target
  /// its next() resolves.
  virtual Measurement measure_interval(
      const config::Configuration& configuration) = 0;

  /// The reported sample of one interval (a lost interval reports its
  /// timeout sentinel; use measure_interval to tell).
  PerfSample measure(const config::Configuration& configuration) {
    return measure_interval(configuration).sample;
  }

  /// Reallocate workload mix and/or VM resources (the external dynamics the
  /// agent must adapt to -- it is NOT told about this call).
  virtual void set_context(const SystemContext& context) = 0;

  virtual SystemContext context() const = 0;

  /// Independent copy of this environment (same context, mechanism
  /// constants, traffic model and cursor) whose measurement-noise stream is
  /// reseeded from `seed`. Clones must be safe to measure concurrently,
  /// one per thread: offline policy initialization measures every coarse
  /// sample on its own clone. The default returns nullptr (cloning
  /// unsupported, as for the discrete-event simulator).
  virtual std::unique_ptr<Environment> clone_with_seed(
      std::uint64_t /*seed*/) const {
    return nullptr;
  }

  /// The dynamic-traffic state measure_interval consumes, or nullptr for an
  /// environment that cannot honor a traffic model. Decorators forward
  /// their inner environment's. One non-const accessor serves both the
  /// const readers and the mutators below; overrides only return an
  /// address.
  virtual TrafficCursor* traffic_cursor() { return nullptr; }

  /// Install (or clear, with nullptr) a dynamic traffic model: from then
  /// on each measured interval runs under model->target_at(cursor, mix).
  /// Installing resets the cursor to 0. Without a cursor only nullptr is
  /// accepted; anything else throws std::invalid_argument (the environment
  /// cannot honor a model it would silently ignore).
  void set_traffic_model(std::shared_ptr<const workload::TrafficModel> model);
  std::shared_ptr<const workload::TrafficModel> traffic_model() const {
    const TrafficCursor* c = const_cast<Environment*>(this)->traffic_cursor();
    return c != nullptr ? c->model() : nullptr;
  }
  /// The traffic cursor (0 without one).
  std::uint64_t traffic_interval() const {
    const TrafficCursor* c = const_cast<Environment*>(this)->traffic_cursor();
    return c != nullptr ? c->position() : 0;
  }
  /// Reposition the traffic cursor (restore path). Without a cursor a
  /// nonzero target throws std::invalid_argument.
  void seek_traffic(std::uint64_t interval);
};

}  // namespace rac::env
