// Fleet-scale control plane: shard thousands of independent tenant agents
// over the deterministic worker pool.
//
// The paper evaluates one agent reconfiguring one web system. A cloud
// provider runs the same loop for every hosted tenant, which adds three
// systems problems the single-tenant stack does not have:
//
//   * scale      -- tenants are partitioned into contiguous shards, one
//                   pool task per shard, so a fleet advances in parallel
//                   while staying bit-identical to a serial sweep at any
//                   thread count (per-shard ordering + per-tenant seed
//                   streams, the core::build_library recipe);
//   * sharing    -- every tenant consults the same offline policy library.
//                   The library is copy-on-write (one shared_ptr per
//                   agent, storage cloned only on mutation), so handing it
//                   to ten thousand agents costs ten thousand pointers;
//   * feedback   -- tenants in the same context learn from each other:
//                   cross-tenant retraining periodically folds every
//                   tenant's experience into per-context reward models,
//                   retrains the library's Q-tables in canonical order,
//                   and publishes the refreshed library back to every
//                   agent (again COW -- one clone total, not one per
//                   tenant).
//
// Determinism contract: a fleet's trajectory is a pure function of
// (specs, options, library). Thread count, shard scheduling order, and
// checkpoint/restore boundaries never change a single decision; the golden
// suite in tests/fleet proves digests and serialized snapshots bitwise
// equal across all three axes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "fault/fault_env.hpp"
#include "workload/dynamic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rac::util {
class ThreadPool;
}  // namespace rac::util

namespace rac::fleet {

/// One hosted tenant: its context-change script plus an optional injected
/// fault model (a fleet slice always has a few tenants with flaky
/// monitoring; the golden tests exercise exactly that).
struct TenantSpec {
  int id = 0;
  core::ContextSchedule schedule;
  /// When set, the tenant's environment is wrapped in a fault::FaultyEnv
  /// seeded from (options.fault_seed, id).
  std::optional<fault::FaultProfile> fault_profile;
  /// Optional dynamic-traffic model installed on the tenant's environment
  /// (workload/dynamic.hpp). Immutable run input, like the schedule: a
  /// fleet checkpoint persists only the per-tenant cursor, and a restore
  /// validates against the live specs' models.
  std::shared_ptr<const workload::TrafficModel> traffic;
};

/// Per-tenant rollup folded from the runner traces. Observability, not
/// state: it is NOT checkpointed, so after a restore it covers only the
/// intervals run since (the same contract as FaultyEnv::true_history).
struct TenantStats {
  long long iterations = 0;
  long long sla_hits = 0;        // intervals with response <= SLA reference
  double response_sum_ms = 0.0;  // over intervals with a defined mean
  long long measured_iterations = 0;
  int policy_switches = 0;
};

struct FleetOptions {
  /// Number of contiguous tenant shards (pool tasks per segment). The
  /// partition is a function of this count alone -- never of the pool's
  /// thread count -- so changing RAC_THREADS cannot move a tenant across
  /// shards. Clamped down to the tenant count.
  std::size_t shard_count = 8;
  /// Base of every tenant's seed streams: tenant `id` draws env seed
  /// derive_seed(seed, 2*id) and agent seed derive_seed(seed, 2*id+1).
  std::uint64_t seed = 101;
  /// Per-tenant agent options (seed and registry are overridden per
  /// tenant).
  core::RacOptions agent{};
  /// Per-tenant environment options (seed, registry, and the construction
  /// context are overridden per tenant).
  env::AnalyticEnvOptions env{};
  /// Base of the per-tenant fault-script seeds.
  std::uint64_t fault_seed = 17;
  /// Cross-tenant retraining cadence in intervals (0 = never). Boundaries
  /// are absolute multiples, so run(a); run(b) retrains exactly like
  /// run(a + b).
  int retrain_every = 0;
  /// Pool the shards fan out on; nullptr means obs::shared_pool().
  util::ThreadPool* pool = nullptr;
  /// Registry receiving the fleet-level fleet.* metrics; nullptr means
  /// obs::default_registry(). Per-tenant telemetry lands in per-shard
  /// registries owned by the manager (rolled up via shard_metrics()).
  obs::Registry* registry = nullptr;
  /// Receives every tenant's per-interval TraceEvents. Shards emit
  /// concurrently, so the sink must be thread-safe and order-insensitive
  /// for cross-thread determinism (obs::DigestTraceSink is both); nullptr
  /// disables tracing.
  obs::TraceSink* sink = nullptr;
};

/// Fleet-wide aggregates derived from the per-tenant stats.
struct FleetReport {
  std::size_t tenants = 0;
  long long iterations = 0;      // total tenant-intervals advanced
  double sla_attainment = 0.0;   // fraction of intervals meeting the SLA
  double mean_response_ms = 0.0; // over intervals with a defined mean
  long long policy_switches = 0;
  int retrain_rounds = 0;
};

class FleetManager {
 public:
  /// Builds one (environment, agent) pair per spec, in parallel over
  /// shards. Throws std::invalid_argument for an empty spec list,
  /// duplicate or negative tenant ids, shard_count == 0, or a negative
  /// retrain_every.
  FleetManager(std::vector<TenantSpec> specs, FleetOptions options,
               core::InitialPolicyLibrary library);

  /// Advance every tenant by `iterations` intervals (absolute iteration
  /// numbers continue across calls), retraining at every multiple of
  /// retrain_every crossed. Bit-identical at any pool size. Throws
  /// std::invalid_argument, before any tenant moves, for a negative count
  /// or one that would carry completed() past INT_MAX.
  void run(int iterations);

  int completed() const noexcept { return completed_; }
  int retrain_rounds() const noexcept { return retrain_rounds_; }
  std::size_t tenant_count() const noexcept { return tenants_.size(); }
  std::size_t shard_count() const noexcept { return shard_count_; }

  const core::InitialPolicyLibrary& library() const noexcept {
    return library_;
  }
  const TenantStats& stats(std::size_t tenant_index) const {
    return tenants_.at(tenant_index).stats;
  }
  const core::RacAgent& agent(std::size_t tenant_index) const {
    return *tenants_.at(tenant_index).agent;
  }

  FleetReport report() const;

  /// Merged snapshot of every shard registry (per-tenant telemetry).
  obs::MetricsSnapshot shard_metrics() const;

  /// Replace the trace sink for subsequent run() calls (same thread-safety
  /// contract as FleetOptions::sink). The golden tests use this to digest
  /// each leg of a run separately.
  void set_sink(obs::TraceSink* sink) noexcept { opt_.sink = sink; }

  /// Serialize / adopt the complete fleet state ("rac-fleet-checkpoint
  /// v2"): progress, the shared library, and every tenant's environment
  /// noise stream, traffic cursor, fault position, and agent snapshot.
  /// See fleet_io.hpp for the file-level wrappers. restore_checkpoint
  /// accepts only v2. It parses the whole stream into one record per
  /// tenant and checks every record against the live fleet (tenant count,
  /// ids, fault topology, library shape, and each agent snapshot with
  /// RacAgent::check_restorable) before adopting anything. It throws
  /// std::runtime_error on a malformed or mismatched file and
  /// std::invalid_argument for a snapshot from a differently configured
  /// agent; either way the fleet is left unchanged.
  void save_checkpoint(std::ostream& os) const;
  void restore_checkpoint(std::istream& is);

 private:
  struct Tenant {
    TenantSpec spec;
    std::unique_ptr<env::Environment> env;    // what the runner drives
    env::AnalyticEnv* analytic = nullptr;     // inner model (owned via env)
    fault::FaultyEnv* faulty = nullptr;       // decorator, when faulted
    std::unique_ptr<core::RacAgent> agent;
    TenantStats stats;
  };

  /// Tenants of shard `s`: [shard_begin(s), shard_begin(s + 1)).
  std::size_t shard_begin(std::size_t s) const noexcept;
  util::ThreadPool& pool() const;
  void run_segment(int from, int to);
  void cross_tenant_retrain();

  FleetOptions opt_;
  core::InitialPolicyLibrary library_;
  std::vector<Tenant> tenants_;
  std::size_t shard_count_ = 1;
  std::vector<std::unique_ptr<obs::Registry>> shard_registries_;
  int completed_ = 0;
  int retrain_rounds_ = 0;
};

}  // namespace rac::fleet
