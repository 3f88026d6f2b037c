// Discrete-event simulation of the paper's testbed: a three-tier
// Apache / Tomcat / MySQL website on two VMs, driven by TPC-W emulated
// browsers.
//
// VM 1 (fixed) hosts the Apache web tier; VM 2 (resizable -- the paper's
// Level-1/2/3 reallocation target) hosts Tomcat and MySQL. The simulator
// models the mechanisms the eight Table-1 parameters act through:
//
//   * MaxClients        -- cap on web workers; a browser needs a worker for
//                          the whole request, and keep-alive holds workers
//                          between requests. Too few => accept-queue waits;
//                          too many => concurrency overhead and memory.
//   * KeepAlive timeout -- how long an idle connection keeps its worker.
//                          Long enough to cover think times saves the
//                          connection-setup cost; longer only wastes slots.
//   * Min/MaxSpareServers - idle-worker pool bounds; forks cost CPU and
//                          latency, idle workers cost memory.
//   * MaxThreads        -- Tomcat request threads (queueing vs memory).
//   * Session timeout   -- expired sessions are rebuilt from the database;
//                          live sessions consume app-VM memory.
//   * min/maxSpareThreads - thread-pool churn vs idle memory.
//
// The database shares the app VM: its buffer pool is whatever memory the
// threads and sessions leave, and a shrinking pool inflates every database
// demand (cache misses). Write transactions add lock contention.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "tiersim/event_queue.hpp"
#include "tiersim/ps_resource.hpp"
#include "tiersim/system_params.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/dynamic.hpp"
#include "workload/session.hpp"

namespace rac::obs {
class Registry;
}

namespace rac::tiersim {

struct SimSetup {
  config::Configuration configuration;
  /// The load the browsers offer. The simulator runs
  /// workload::scaled_population(num_clients, traffic) browsers, each
  /// with its think and pause means multiplied by traffic.think_scale
  /// (> 0), apportioned to the mixes of traffic.mix_weights by
  /// largest-remainder quotas in enum order: deterministic, and a one-hot
  /// target reproduces the single-mix population bitwise.
  workload::TrafficTarget traffic =
      workload::one_hot_target(workload::MixType::kShopping);
  VmSpec web_vm{2, 2048.0};
  VmSpec app_vm{4, 4096.0};
  /// Base browser population (>= 1).
  int num_clients = 400;
  std::uint64_t seed = 1;
  /// Metrics destination; nullptr means the process-wide default registry.
  obs::Registry* registry = nullptr;
};

/// Aggregate measurement over one observation window.
struct Measurement {
  double mean_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double throughput_rps = 0.0;
  std::uint64_t completed = 0;
  double mean_accept_wait_ms = 0.0;   // time spent waiting for a web worker
  double mean_app_wait_ms = 0.0;      // time spent waiting for an app thread
  double connection_reuse_rate = 0.0; // fraction of requests on a kept-alive
                                      // connection
  double session_rebuild_rate = 0.0;  // fraction of session requests that hit
                                      // an expired session
  double mean_web_workers = 0.0;      // average worker-pool size
  double mean_app_threads = 0.0;      // average thread-pool size
  double mean_db_buffer_mb = 0.0;     // average database buffer pool
  std::uint64_t forks = 0;            // workers forked during the window
};

class ThreeTierSystem {
 public:
  ThreeTierSystem(const SystemParams& params, const SimSetup& setup);
  ~ThreeTierSystem();

  ThreeTierSystem(const ThreeTierSystem&) = delete;
  ThreeTierSystem& operator=(const ThreeTierSystem&) = delete;

  /// Advance the simulation by `warmup_s` (statistics discarded), then by
  /// `measure_s` and return the window's measurement. Callable repeatedly;
  /// system state (pools, sessions, connections) persists across calls.
  Measurement run(double warmup_s, double measure_s);

  /// Online reconfiguration, as the RAC configuration controller performs
  /// between measurement intervals. Takes effect from the current virtual
  /// time (pools shrink/grow via the spare-pool maintenance rules).
  void reconfigure(const config::Configuration& configuration);

  /// VM resource reallocation (the paper's Level change on the app+db VM).
  void set_app_vm(const VmSpec& vm);

  const config::Configuration& configuration() const noexcept;
  double now() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rac::tiersim
