// Fleet-scale control plane: throughput and determinism at thousands of
// tenants.
//
// Shards a fleet of independent tenant agents (each its own environment +
// RAC agent + seed stream, some behind an injected-fault profile) over the
// deterministic pool, drives everyone through a mid-run context switch
// with two cross-tenant retraining rounds, and reports SLA attainment,
// mean response, wall-clock, and tenant-intervals/sec/core. The same
// fleet is run twice -- on a 1-thread pool (the exact serial path) and on
// a 4-thread pool -- and the order-insensitive decision digests plus the
// serialized whole-fleet checkpoints must compare IDENTICAL: sharding
// reschedules the work, it never changes a decision. Exits non-zero
// otherwise, so the binary doubles as an acceptance check.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "env/context.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

std::vector<rac::fleet::TenantSpec> make_specs(int tenants, int switch_at) {
  using rac::env::table2_context;
  std::vector<rac::fleet::TenantSpec> specs(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    rac::fleet::TenantSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.id = i;
    // Half the fleet starts in each context and everyone switches mid-run,
    // so the cross-tenant retraining rounds pool experience for both
    // library policies.
    const int first = 1 + (i % 2);
    spec.schedule = {{0, table2_context(first)},
                     {switch_at, table2_context(3 - first)}};
    if (i % 16 == 5) {
      rac::fault::FaultProfile profile;
      profile.drop_prob = 0.05;
      profile.spike_prob = 0.05;
      spec.fault_profile = profile;
    }
  }
  return specs;
}

// Streams the whole-fleet checkpoint through an FNV-1a hash instead of
// holding it in memory: at 10k tenants the serialized fleet runs to
// gigabytes, and the bench only needs to compare the two runs bitwise.
class HashingBuf final : public std::streambuf {
 public:
  std::uint64_t hash() const noexcept { return hash_; }
  std::size_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) absorb(static_cast<unsigned char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      absorb(static_cast<unsigned char>(s[i]));
    }
    return n;
  }

 private:
  void absorb(unsigned char c) noexcept {
    hash_ = (hash_ ^ c) * 1099511628211ULL;
    ++bytes_;
  }
  std::uint64_t hash_ = 1469598103934665603ULL;
  std::size_t bytes_ = 0;
};

std::string checkpoint_digest(const rac::fleet::FleetManager& fleet) {
  HashingBuf buf;
  std::ostream os(&buf);
  fleet.save_checkpoint(os);
  std::ostringstream formatted;
  formatted << std::hex << buf.hash() << std::dec << "-" << buf.bytes() << "B";
  return formatted.str();
}

}  // namespace

int main() {
  using namespace rac;
  bench::banner("Fleet scale",
                "sharded multi-tenant control plane: throughput and "
                "bitwise determinism across thread counts");

  const int tenants = bench::scaled(10240, 256);
  const int iterations = 8;
  const int switch_at = iterations / 2;
  const std::uint64_t run_seed = 101;
  bench::set_report_seed(run_seed);

  // Fleet-scale tenants run a lighter system than the paper's single
  // agent: fewer emulated browsers and fixed-point iterations per
  // measurement, and an SLA tight enough that the mid-run context switch
  // actually produces violations (and hence policy switches).
  env::AnalyticEnvOptions fleet_env;
  fleet_env.num_clients = 150;
  fleet_env.fixed_point_iterations = 3;

  // A deliberately compact library trained on the noiseless twin of the
  // fleet environment. Every agent's Q-table is an overlay on its active
  // library table, which each retrain generation holds once, but a fleet
  // checkpoint writes every tenant's merged table: at 10k tenants the
  // coarse grid and offline TD budget directly set the checkpoint size.
  core::PolicyInitOptions init;
  init.coarse_levels = 3;
  init.offline_td.trajectory_limit = 6;
  init.offline_td.max_sweeps = bench::scaled(40, 20);
  const core::InitialPolicyLibrary library = core::build_library(
      {env::table2_context(1), env::table2_context(2)},
      [&](const env::SystemContext& ctx) {
        env::AnalyticEnvOptions offline = fleet_env;
        offline.noise_sigma = 0.0;
        offline.seed = run_seed;
        return std::make_unique<env::AnalyticEnv>(ctx, offline);
      },
      init);

  struct RunResult {
    std::string digest;
    std::string checkpoint;
    fleet::FleetReport report;
    double seconds = 0.0;
  };
  const auto drive = [&](util::ThreadPool& pool) {
    // Per-run digest for the serial-vs-parallel comparison, teed into the
    // harness sink so the rac-bench-report digest (the trajectory gate)
    // covers the fleet's actual decisions.
    obs::DigestTraceSink digest;
    obs::TeeTraceSink sink({&digest, &bench::trace_sink()});
    fleet::FleetOptions options;
    options.shard_count = 64;
    options.seed = run_seed;
    options.retrain_every = switch_at;
    options.env = fleet_env;
    // Smaller per-interval TD refresh than the single-agent default.
    // Identical for both runs, so the determinism comparison is
    // unaffected.
    options.agent.online_td.trajectory_limit = 4;
    options.agent.online_td.max_sweeps = 6;
    options.agent.sla.reference_response_ms = 250.0;
    // Only `iterations - switch_at` intervals follow the context switch,
    // so the detector must declare a change faster than the single-agent
    // default of 5 consecutive violations.
    options.agent.violation.consecutive_limit = 2;
    options.agent.violation.threshold = 0.15;
    options.pool = &pool;
    options.sink = &sink;
    options.registry = &obs::default_registry();
    const auto start = std::chrono::steady_clock::now();
    fleet::FleetManager manager(make_specs(tenants, switch_at), options,
                                library);
    manager.run(iterations);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return RunResult{digest.digest(), checkpoint_digest(manager),
                     manager.report(), seconds};
  };

  util::ThreadPool serial_pool(1);
  util::ThreadPool wide_pool(4, obs::pool_telemetry(obs::default_registry()));
  std::cout << "driving " << tenants << " tenants x " << iterations
            << " intervals (context switch + retrain at " << switch_at
            << ") at 1 thread, then at " << wide_pool.size()
            << " threads ...\n";
  const RunResult serial = drive(serial_pool);
  const RunResult wide = drive(wide_pool);

  const bool identical = serial.digest == wide.digest &&
                         serial.checkpoint == wide.checkpoint;
  const auto per_core = [&](const RunResult& r, std::size_t cores) {
    const double total =
        static_cast<double>(r.report.iterations) / static_cast<double>(cores);
    return r.seconds > 0.0 ? total / r.seconds : 0.0;
  };

  util::TextTable table({"threads", "wall-clock (s)", "tenant-intervals/s/core",
                         "SLA attainment", "mean response (ms)"});
  table.add_row({"1", util::fmt(serial.seconds, 2),
                 util::fmt(per_core(serial, 1), 0),
                 util::fmt(serial.report.sla_attainment, 3),
                 util::fmt(serial.report.mean_response_ms, 1)});
  table.add_row({std::to_string(wide_pool.size()), util::fmt(wide.seconds, 2),
                 util::fmt(per_core(wide, wide_pool.size()), 0),
                 util::fmt(wide.report.sla_attainment, 3),
                 util::fmt(wide.report.mean_response_ms, 1)});
  std::cout << table.str() << "\nCSV:\n" << table.csv();
  std::cout << "\nfleet decisions across thread counts: "
            << (identical ? "IDENTICAL (bitwise)" : "DIFFERENT -- BUG")
            << "\n  trace digest " << serial.digest << " vs " << wide.digest
            << "\n  checkpoint digest " << serial.checkpoint << " vs "
            << wide.checkpoint << "\n";
  std::cout << "retrain rounds per run: " << serial.report.retrain_rounds
            << ", policy switches: " << serial.report.policy_switches << "\n";
  bench::report_metrics({"fleet.", "util.pool."});

  bench::paper_note(
      "the paper runs one agent per web system; a cloud operator runs "
      "thousands of such systems, so the control plane must shard tenants "
      "across cores without perturbing any tenant's decision sequence",
      "SLA/throughput table above and a bitwise-identical decision digest "
      "and fleet checkpoint at 1 and 4 threads");

  if (!identical) return 1;
  return 0;
}
