// Analytic performance model of the simulated three-tier testbed.
//
// Solves the closed interactive network with exact MVA (src/queueing) over
// two load-dependent stations -- the web VM and the app+db VM -- whose
// rate tables encode the Table-1 parameters' mechanisms, using the same
// SystemParams constants as the discrete-event simulator:
//
//   * MaxClients caps the concurrency the web station can serve; idle
//     keep-alive connections occupy part of that cap (they hold worker
//     processes), so the effective active cap is MaxClients minus the
//     expected number of parked connections.
//   * KeepAlive timeout trades the connection-setup demand saved by reuse
//     against the worker-slots parked on idle connections.
//   * Spare-server bounds trade fork-wait latency (too few spares) against
//     worker memory and pool churn (too many / inverted bounds).
//   * MaxThreads caps the app+db station's served concurrency; threads
//     consume app-VM memory.
//   * Session timeout trades session-rebuild database work against session
//     memory; both act on the database through its buffer pool.
//   * The database buffer pool is the app VM's leftover memory; a working
//     set larger than the pool inflates every database demand, and
//     concurrent writers add lock contention.
//
// A short fixed-point iteration couples throughput-dependent quantities
// (parked connections, pool sizes, live sessions, writer concurrency) with
// the MVA solution. Measurement noise is multiplicative lognormal.
//
// For fixed options the model is a pure function of (context,
// configuration, traffic target), and an agent near its optimum keeps
// measuring the same few operating points, so measure_interval answers a
// repeated one from a small memo of noiseless samples instead of solving
// the fixed point again. Noise is drawn on every measurement either way.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "env/environment.hpp"
#include "queueing/mva.hpp"
#include "util/rng.hpp"

namespace rac::env {

struct AnalyticEnvOptions {
  int num_clients = 400;
  /// Lognormal sigma of measurement noise; 0 disables noise.
  double noise_sigma = 0.10;
  std::uint64_t seed = 42;
  /// Coupling fixed-point iterations (converges in a handful).
  int fixed_point_iterations = 6;
  /// Metrics destination; nullptr means the process-wide default registry.
  obs::Registry* registry = nullptr;
};

/// Model internals exposed for tests, calibration, and the experiment
/// harnesses' commentary columns.
struct ModelDiagnostics {
  double throughput_rps = 0.0;
  double response_s = 0.0;
  double held_connections = 0.0;   // workers parked on keep-alive
  double active_need = 0.0;        // X * R: in-flight requests
  double effective_web_cap = 0.0;  // MaxClients - held
  double connection_reuse = 0.0;   // probability a request reuses its conn
  double live_sessions = 0.0;
  double db_buffer_mb = 0.0;
  double db_miss_mult = 1.0;
  double write_lock_mult = 1.0;
  double web_workers = 0.0;        // expected worker-pool size
  double app_threads = 0.0;        // expected thread-pool size
  double web_demand_ms = 0.0;      // effective per-request web demand
  double appdb_demand_ms = 0.0;    // effective per-request app+db demand
  double fork_wait_ms = 0.0;       // expected fork-latency penalty
  double burst_penalty_ms = 0.0;   // expected burst-overload penalty
  double app_swap_factor = 1.0;
  double web_swap_factor = 1.0;
};

class AnalyticEnv : public Environment {
 public:
  explicit AnalyticEnv(const SystemContext& context,
                       const AnalyticEnvOptions& options = {});

  /// Consumes the interval's traffic target (the model's emission at the
  /// cursor) and advances the cursor. The noiseless sample comes from the
  /// memo when this environment already evaluated the same (context,
  /// configuration, target); the noise draws do not depend on it.
  Measurement measure_interval(
      const config::Configuration& configuration) override;
  void set_context(const SystemContext& context) override { ctx_ = context; }
  SystemContext context() const override { return ctx_; }

  /// The model is pure apart from its noise Rng, its measurement memo and
  /// reusable MVA scratch networks, so independent clones are safe to
  /// measure concurrently (one clone per pool task -- which is how the pool
  /// already shards work). A clone starts with an empty memo.
  std::unique_ptr<Environment> clone_with_seed(
      std::uint64_t seed) const override;

  /// Deterministic model evaluation (no measurement noise, no traffic
  /// target -- the scheduled context's static mix at the configured
  /// population).
  PerfSample evaluate(const config::Configuration& configuration,
                      ModelDiagnostics* diagnostics = nullptr) const;

  /// Deterministic model evaluation under a traffic target: the blended
  /// mix statistics and browser profile, the scaled population, and the
  /// think modulation. A one-hot target with unit scales is bitwise
  /// identical to evaluate(). The tests use this as the noiseless oracle
  /// of measurements under a traffic model.
  PerfSample evaluate_under(const config::Configuration& configuration,
                            const workload::TrafficTarget& target,
                            ModelDiagnostics* diagnostics = nullptr) const;

  /// The model pointer is shared const state; clones carry it along with
  /// the cursor.
  TrafficCursor* traffic_cursor() override { return &traffic_; }

  const AnalyticEnvOptions& options() const noexcept { return opt_; }

  /// The measurement-noise Rng is the only mutable state that shapes
  /// future measurements (the memo and the MVA scratch only save work);
  /// exposing it lets a fleet checkpoint capture a live environment exactly
  /// and resume measure() streams bit-identically.
  util::RngState noise_state() const noexcept { return rng_.state(); }
  void restore_noise_state(const util::RngState& state) { rng_.restore(state); }

 private:
  SystemContext ctx_;
  AnalyticEnvOptions opt_;
  util::Rng rng_;
  TrafficCursor traffic_;
  // Metric handles, resolved once at construction (evaluate() stays free
  // of registry lookups, so concurrent clones never contend on it).
  obs::Counter* measurements_ = nullptr;
  obs::Counter* measure_hits_ = nullptr;
  obs::Counter* noise_draws_ = nullptr;
  obs::Counter* evaluations_ = nullptr;
  obs::Histogram* evaluate_us_ = nullptr;

  // Direct-mapped memo of measure_interval's noiseless samples, keyed by
  // everything the model reads that can change: the context, the eight
  // configuration values and the interval's target (bitwise) or its
  // absence. Sixteen slots keep 98-99.6% of the hits an unbounded memo
  // finds on the benchmark's onboard and fleet-256 workloads (DESIGN.md
  // §13). Never persisted: a restored run re-evaluates to the same bits.
  struct MemoSlot {
    bool filled = false;
    SystemContext context;
    config::Configuration configuration;
    std::optional<workload::TrafficTarget> target;
    PerfSample sample;
  };
  static constexpr std::size_t kMemoSlots = 16;
  std::array<MemoSlot, kMemoSlots> memo_{};

  PerfSample evaluate_target(const config::Configuration& configuration,
                             const workload::TrafficTarget* target,
                             ModelDiagnostics* diagnostics) const;
  // Persistent MVA networks for the fixed-point loop: stations are added
  // once and each iteration swaps in fresh rate tables via
  // set_station_rates, reusing the networks' internal table storage
  // instead of rebuilding three networks per iteration. Mutable because
  // evaluate() is const (the model result does not depend on this state).
  mutable queueing::ClosedNetwork subnet_{0.0};
  mutable queueing::ClosedNetwork outer_{0.0};
};

}  // namespace rac::env
