#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/reward.hpp"
#include "obs/pool.hpp"
#include "obs/profiler.hpp"
#include "rl/td_learner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rac::fleet {

namespace {

// Distinct from every tenant stream index (those stay below 2 * tenants +
// 2), so retraining never replays a tenant's env/agent seeds.
constexpr std::uint64_t kRetrainSalt = 0xF1EE7000000000ULL;

// Algorithm-1 constants of the cross-tenant retraining sweeps.
constexpr rl::TdParams kRetrainTd{0.1, 0.9, 0.1, 1e-3, 8, 40};

// RacAgent with the tenant id baked into its reported name, so the fleet's
// interleaved trace events stay attributable (and the order-insensitive
// digest distinguishes tenants with otherwise identical trajectories).
class TenantAgent final : public core::RacAgent {
 public:
  TenantAgent(int id, const core::RacOptions& options,
              core::InitialPolicyLibrary library,
              std::optional<std::size_t> initial_policy)
      : core::RacAgent(options, std::move(library), initial_policy) {
    // Built via append into reserved storage: GCC 12's -Wrestrict false
    // positive (PR 105329) fires on operator+ chains inlined this deep.
    const std::string id_text = std::to_string(id);
    const std::string base = core::RacAgent::name();
    name_.reserve(id_text.size() + base.size() + 2);
    name_.append("t").append(id_text).append("/").append(base);
  }

  std::string name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace

FleetManager::FleetManager(std::vector<TenantSpec> specs, FleetOptions options,
                           core::InitialPolicyLibrary library)
    : opt_(std::move(options)), library_(std::move(library)) {
  if (specs.empty()) {
    throw std::invalid_argument("FleetManager: empty tenant list");
  }
  if (opt_.shard_count == 0) {
    throw std::invalid_argument("FleetManager: shard_count must be >= 1");
  }
  if (opt_.retrain_every < 0) {
    throw std::invalid_argument("FleetManager: negative retrain_every");
  }
  std::unordered_set<int> ids;
  ids.reserve(specs.size());
  for (const TenantSpec& spec : specs) {
    if (spec.id < 0) {
      throw std::invalid_argument("FleetManager: negative tenant id");
    }
    if (!ids.insert(spec.id).second) {
      throw std::invalid_argument("FleetManager: duplicate tenant id " +
                                  std::to_string(spec.id));
    }
  }

  shard_count_ = std::min(opt_.shard_count, specs.size());
  shard_registries_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    shard_registries_.push_back(std::make_unique<obs::Registry>());
  }

  tenants_.resize(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    tenants_[t].spec = std::move(specs[t]);
  }

  // Construct the (environment, agent) pairs in parallel, one task per
  // shard. Seeds derive from the tenant id alone, so the build is a pure
  // function of (specs, options, library) at any thread count.
  const obs::ProfileScope profile("fleet.build");
  const std::vector<std::string> profile_path =
      obs::Profiler::default_profiler().capture_path();
  pool().parallel_for(shard_count_, [&](std::size_t s) {
    const obs::ProfileAnchor anchor(profile_path);
    obs::Registry* registry = shard_registries_[s].get();
    for (std::size_t t = shard_begin(s); t < shard_begin(s + 1); ++t) {
      Tenant& tenant = tenants_[t];
      const auto uid = static_cast<std::uint64_t>(tenant.spec.id);
      const env::SystemContext initial_context =
          tenant.spec.schedule.empty() ? env::SystemContext{}
                                       : tenant.spec.schedule.front().context;

      env::AnalyticEnvOptions env_options = opt_.env;
      env_options.seed = util::derive_seed(opt_.seed, 2 * uid);
      env_options.registry = registry;
      auto analytic =
          std::make_unique<env::AnalyticEnv>(initial_context, env_options);
      tenant.analytic = analytic.get();
      if (tenant.spec.traffic != nullptr) {
        analytic->set_traffic_model(tenant.spec.traffic);
      }
      if (tenant.spec.fault_profile.has_value()) {
        fault::FaultyEnvOptions fault_options;
        fault_options.profile = *tenant.spec.fault_profile;
        fault_options.seed = util::derive_seed(opt_.fault_seed, uid);
        fault_options.registry = registry;
        auto faulty = std::make_unique<fault::FaultyEnv>(
            std::move(analytic), std::move(fault_options));
        tenant.faulty = faulty.get();
        tenant.env = std::move(faulty);
      } else {
        tenant.env = std::move(analytic);
      }

      core::RacOptions agent_options = opt_.agent;
      agent_options.seed = util::derive_seed(opt_.seed, 2 * uid + 1);
      agent_options.registry = registry;
      const std::optional<std::size_t> initial_policy =
          library_.empty() ? std::nullopt
                           : library_.find_context(initial_context);
      tenant.agent = std::make_unique<TenantAgent>(
          tenant.spec.id, agent_options, library_, initial_policy);
    }
  });
  obs::registry_or_default(opt_.registry)
      .gauge("fleet.tenants")
      .set(static_cast<double>(tenants_.size()));
}

std::size_t FleetManager::shard_begin(std::size_t s) const noexcept {
  const std::size_t per =
      (tenants_.size() + shard_count_ - 1) / shard_count_;
  return std::min(s * per, tenants_.size());
}

util::ThreadPool& FleetManager::pool() const {
  return opt_.pool != nullptr ? *opt_.pool : obs::shared_pool();
}

void FleetManager::run(int iterations) {
  if (iterations < 0) {
    throw std::invalid_argument("FleetManager::run: negative iterations");
  }
  const int target = completed_ + iterations;
  while (completed_ < target) {
    // Segment up to the next absolute retraining boundary: run(a); run(b)
    // crosses the same boundaries as run(a + b), so checkpoint cadence
    // cannot perturb retraining.
    int next = target;
    if (opt_.retrain_every > 0) {
      const int boundary =
          (completed_ / opt_.retrain_every + 1) * opt_.retrain_every;
      next = std::min(next, boundary);
    }
    run_segment(completed_, next);
    completed_ = next;
    if (opt_.retrain_every > 0 && completed_ % opt_.retrain_every == 0) {
      cross_tenant_retrain();
    }
  }
}

void FleetManager::run_segment(int from, int to) {
  const obs::ProfileScope profile("fleet.run_segment");
  const std::vector<std::string> profile_path =
      obs::Profiler::default_profiler().capture_path();
  pool().parallel_for(shard_count_, [&](std::size_t s) {
    const obs::ProfileAnchor anchor(profile_path);
    obs::Registry* registry = shard_registries_[s].get();
    for (std::size_t t = shard_begin(s); t < shard_begin(s + 1); ++t) {
      Tenant& tenant = tenants_[t];
      core::RunOptions run_options;
      run_options.sink = opt_.sink;
      run_options.registry = registry;
      run_options.start_iteration = from;
      const core::AgentTrace trace = core::run_agent(
          *tenant.env, *tenant.agent, tenant.spec.schedule, to, run_options);
      const auto count = static_cast<long long>(trace.records.size());
      tenant.stats.iterations += count;
      for (const core::IterationRecord& record : trace.records) {
        if (record.response_ms <= opt_.agent.sla.reference_response_ms) {
          ++tenant.stats.sla_hits;
        }
      }
      const double mean = trace.mean_response_ms();
      if (!std::isnan(mean)) {  // empty segments have no mean to fold in
        tenant.stats.response_sum_ms += mean * static_cast<double>(count);
        tenant.stats.measured_iterations += count;
      }
      tenant.stats.policy_switches = tenant.agent->policy_switches();
    }
  });
  obs::Registry& registry = obs::registry_or_default(opt_.registry);
  registry.counter("fleet.segments").add(1);
  registry.counter("fleet.tenant_intervals")
      .add(static_cast<std::uint64_t>(to - from) * tenants_.size());
}

void FleetManager::cross_tenant_retrain() {
  if (library_.empty()) return;
  const obs::ProfileScope profile("fleet.retrain");

  // Pool every tenant's experience by the library policy matching its
  // current context, weighted by observation count. The map keys sort the
  // configurations canonically and the outer loop walks tenants in fixed
  // order, so the accumulated doubles are bitwise reproducible.
  struct Cell {
    double weighted_ms = 0.0;
    double weight = 0.0;
  };
  using ConfigKey = std::array<int, config::kNumParams>;
  std::vector<std::map<ConfigKey, Cell>> grouped(library_.size());
  for (const Tenant& tenant : tenants_) {
    const std::optional<std::size_t> index =
        library_.find_context(tenant.env->context());
    if (!index.has_value()) continue;
    for (const rl::ExperienceEntry& entry :
         tenant.agent->experience().entries()) {
      Cell& cell = grouped[*index][entry.configuration.values()];
      const double weight = static_cast<double>(entry.observation.count);
      cell.weighted_ms += entry.observation.response_ms * weight;
      cell.weight += weight;
    }
  }

  // Retrain each policy that received data, one pool task per policy,
  // seeded per (round, policy) so successive rounds sweep fresh streams.
  const std::vector<std::string> profile_path =
      obs::Profiler::default_profiler().capture_path();
  std::vector<std::optional<rl::QTable>> retrained(library_.size());
  pool().parallel_for(library_.size(), [&](std::size_t i) {
    const obs::ProfileAnchor anchor(profile_path);
    if (grouped[i].empty()) return;
    const core::InitialPolicy& policy = library_.at(i);
    const std::map<ConfigKey, Cell>& group = grouped[i];
    std::vector<config::Configuration> starts;
    starts.reserve(group.size());
    for (const auto& [values, cell] : group) {
      starts.emplace_back(values);
    }
    // Measured states replay the fleet's pooled observations; everything
    // else falls back to the policy's offline regression surface, exactly
    // like the single-agent online retrain.
    const rl::RewardFn reward = [&](const config::Configuration& c) {
      const auto it = group.find(c.values());
      if (it != group.end() && it->second.weight > 0.0) {
        return core::reward_from_response(
            opt_.agent.sla, it->second.weighted_ms / it->second.weight);
      }
      return policy.predict_reward(c);
    };
    rl::QTable table;
    table.rebase(library_.shared_table(i));
    util::Rng rng(util::derive_seed(
        opt_.seed,
        kRetrainSalt +
            static_cast<std::uint64_t>(retrain_rounds_) * library_.size() +
            i));
    rl::batch_train(table, starts, reward, kRetrainTd, rng,
                    opt_.registry);
    retrained[i] = std::move(table);
  });

  // Publish: build the refreshed library once, then hand every agent a COW
  // copy -- ten thousand rebases share the one new storage block.
  core::InitialPolicyLibrary refreshed;
  for (std::size_t i = 0; i < library_.size(); ++i) {
    core::InitialPolicy policy = library_.at(i);
    if (retrained[i].has_value()) policy.table = std::move(*retrained[i]);
    refreshed.add(std::move(policy));
  }
  library_ = std::move(refreshed);
  for (Tenant& tenant : tenants_) {
    tenant.agent->rebase_library(library_);
  }
  ++retrain_rounds_;
  obs::registry_or_default(opt_.registry).counter("fleet.retrain_rounds").add(1);
}

FleetReport FleetManager::report() const {
  FleetReport report;
  report.tenants = tenants_.size();
  report.retrain_rounds = retrain_rounds_;
  long long measured = 0;
  double response_sum = 0.0;
  long long sla_hits = 0;
  for (const Tenant& tenant : tenants_) {
    report.iterations += tenant.stats.iterations;
    sla_hits += tenant.stats.sla_hits;
    response_sum += tenant.stats.response_sum_ms;
    measured += tenant.stats.measured_iterations;
    report.policy_switches += tenant.stats.policy_switches;
  }
  if (report.iterations > 0) {
    report.sla_attainment = static_cast<double>(sla_hits) /
                            static_cast<double>(report.iterations);
  }
  if (measured > 0) {
    report.mean_response_ms = response_sum / static_cast<double>(measured);
  }
  return report;
}

obs::MetricsSnapshot FleetManager::shard_metrics() const {
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(shard_registries_.size());
  for (const auto& registry : shard_registries_) {
    parts.push_back(registry->snapshot());
  }
  return obs::merge_snapshots(parts);
}

}  // namespace rac::fleet
