// Fleet golden determinism suite.
//
// The fleet control plane's contract is that a fleet trajectory is a pure
// function of (specs, options, library): thread count, shard scheduling,
// and checkpoint/restore boundaries must not change one decision. These
// tests hold the same bar as the single-agent goldens
// (parallel/determinism_test, core/checkpoint_resume_test), fleet-wide:
// order-insensitive trace digests and serialized checkpoints compared
// bitwise between a serial run, a 4-thread run, and a stitched
// checkpoint/restore run -- with some tenants running behind an
// injected-fault environment.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "env/analytic_env.hpp"
#include "env/context.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/lineio.hpp"
#include "util/thread_pool.hpp"
#include "workload/dynamic.hpp"

namespace rac::fleet {
namespace {

using env::SystemContext;
using env::VmLevel;
using workload::MixType;

constexpr SystemContext kContextA{MixType::kShopping, VmLevel::kLevel1};
constexpr SystemContext kContextB{MixType::kOrdering, VmLevel::kLevel1};

// One offline library shared by every fleet in the suite (training is the
// expensive part; the fleets themselves are cheap).
const core::InitialPolicyLibrary& shared_library() {
  static const core::InitialPolicyLibrary library = [] {
    core::PolicyInitOptions init;
    init.coarse_levels = 3;
    init.offline_td.max_sweeps = 60;
    env::AnalyticEnvOptions offline;
    offline.noise_sigma = 0.0;
    core::InitialPolicyLibrary built;
    for (const SystemContext& context : {kContextA, kContextB}) {
      env::AnalyticEnv environment(context, offline);
      built.add(core::learn_initial_policy(environment, init));
    }
    return built;
  }();
  return library;
}

// `faulted` tenants get a stochastic drop/spike profile; every tenant gets
// a mid-run context switch at iteration 9.
std::vector<TenantSpec> make_specs(int tenants) {
  std::vector<TenantSpec> specs(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    TenantSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.id = i;
    const SystemContext first = (i % 2 == 0) ? kContextA : kContextB;
    const SystemContext second = (i % 2 == 0) ? kContextB : kContextA;
    spec.schedule = {{0, first}, {9, second}};
    if (i % 8 == 3) {
      fault::FaultProfile profile;
      profile.drop_prob = 0.10;
      profile.spike_prob = 0.10;
      profile.spike_multiplier = 20.0;
      spec.fault_profile = profile;
    }
  }
  return specs;
}

FleetOptions make_options(util::ThreadPool* pool, obs::TraceSink* sink,
                          obs::Registry* registry) {
  FleetOptions options;
  options.shard_count = 8;
  options.seed = 777;
  options.retrain_every = 7;
  options.pool = pool;
  options.sink = sink;
  options.registry = registry;
  return options;
}

std::string checkpoint_bytes(const FleetManager& fleet) {
  std::ostringstream os;
  fleet.save_checkpoint(os);
  return os.str();
}

TEST(Fleet, ParallelRunIsBitIdenticalToSerial) {
  obs::Registry registry;
  util::ThreadPool serial_pool(1);
  obs::DigestTraceSink serial_sink;
  FleetManager serial(make_specs(64),
                      make_options(&serial_pool, &serial_sink, &registry),
                      shared_library());
  serial.run(14);

  util::ThreadPool wide_pool(4);
  obs::DigestTraceSink wide_sink;
  FleetManager wide(make_specs(64),
                    make_options(&wide_pool, &wide_sink, &registry),
                    shared_library());
  wide.run(14);

  // Every decision of every tenant, bit for bit: the order-insensitive
  // digests match, the serialized whole-fleet checkpoints match, and the
  // derived report matches exactly (not approximately).
  EXPECT_EQ(serial_sink.count(), 64u * 14u);
  EXPECT_EQ(serial_sink.digest(), wide_sink.digest());
  EXPECT_EQ(checkpoint_bytes(serial), checkpoint_bytes(wide));

  const FleetReport serial_report = serial.report();
  const FleetReport wide_report = wide.report();
  EXPECT_EQ(serial_report.iterations, 64 * 14);
  EXPECT_EQ(serial_report.sla_attainment, wide_report.sla_attainment);
  EXPECT_EQ(serial_report.mean_response_ms, wide_report.mean_response_ms);
  EXPECT_EQ(serial_report.policy_switches, wide_report.policy_switches);
  EXPECT_EQ(serial_report.retrain_rounds, 2);
  EXPECT_EQ(wide_report.retrain_rounds, 2);
}

TEST(Fleet, CheckpointRestoreStitchesBitIdentically) {
  obs::Registry registry;
  const std::string path =
      ::testing::TempDir() + "/rac_fleet_checkpoint_test.rac";

  // Reference: uninterrupted 28 intervals, digested per leg via the sink
  // swap so each half can be compared on its own.
  util::ThreadPool reference_pool(4);
  obs::DigestTraceSink reference_first, reference_second;
  FleetManager reference(
      make_specs(64),
      make_options(&reference_pool, &reference_first, &registry),
      shared_library());
  reference.run(14);
  reference.set_sink(&reference_second);
  reference.run(14);

  // Live: run half, checkpoint to disk, restore into a FRESH fleet (new
  // environments, new agents), finish the run there.
  util::ThreadPool live_pool(4);
  obs::DigestTraceSink live_first;
  FleetManager live(make_specs(64),
                    make_options(&live_pool, &live_first, &registry),
                    shared_library());
  live.run(14);
  save_fleet_checkpoint_file(path, live);

  util::ThreadPool resumed_pool(4);
  obs::DigestTraceSink resumed_second;
  FleetManager resumed(make_specs(64),
                       make_options(&resumed_pool, &resumed_second, &registry),
                       shared_library());
  restore_fleet_checkpoint_file(path, resumed);
  EXPECT_EQ(resumed.completed(), 14);
  EXPECT_EQ(resumed.retrain_rounds(), 2);
  resumed.run(14);

  EXPECT_EQ(live_first.digest(), reference_first.digest());
  EXPECT_EQ(resumed_second.digest(), reference_second.digest());
  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(reference));

  std::remove(path.c_str());
}

// Dynamic traffic (workload/dynamic.hpp): phase-staggered diurnal days so
// tenants disagree about where in the day they are.
std::shared_ptr<const workload::TrafficModel> tenant_traffic(int i) {
  auto model = std::make_shared<workload::TrafficModel>();
  model->add_diurnal({16.0, 0.3, static_cast<double>(i % 4)})
      .add_think_noise({static_cast<std::uint64_t>(100 + i), 0.2});
  return model;
}

std::vector<TenantSpec> make_traffic_specs(int tenants) {
  std::vector<TenantSpec> specs = make_specs(tenants);
  for (int i = 0; i < tenants; ++i) {
    if (i % 3 != 2) {  // leave some tenants on static traffic
      specs[static_cast<std::size_t>(i)].traffic = tenant_traffic(i);
    }
  }
  return specs;
}

TEST(Fleet, TrafficTenantsCheckpointRestoreStitchesBitIdentically) {
  obs::Registry registry;
  const std::string path =
      ::testing::TempDir() + "/rac_fleet_traffic_checkpoint.rac";

  util::ThreadPool reference_pool(4);
  obs::DigestTraceSink reference_first, reference_second;
  FleetManager reference(
      make_traffic_specs(16),
      make_options(&reference_pool, &reference_first, &registry),
      shared_library());
  reference.run(8);
  reference.set_sink(&reference_second);
  reference.run(8);

  // Serial first half, checkpointed mid-day, restored into a fresh
  // 4-thread fleet: the traffic cursors must stitch like the noise Rngs.
  util::ThreadPool live_pool(1);
  obs::DigestTraceSink live_first;
  FleetManager live(make_traffic_specs(16),
                    make_options(&live_pool, &live_first, &registry),
                    shared_library());
  live.run(8);
  save_fleet_checkpoint_file(path, live);

  util::ThreadPool resumed_pool(4);
  obs::DigestTraceSink resumed_second;
  FleetManager resumed(make_traffic_specs(16),
                       make_options(&resumed_pool, &resumed_second, &registry),
                       shared_library());
  restore_fleet_checkpoint_file(path, resumed);
  EXPECT_EQ(resumed.completed(), 8);
  resumed.run(8);

  EXPECT_EQ(live_first.digest(), reference_first.digest());
  EXPECT_EQ(resumed_second.digest(), reference_second.digest());
  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(reference));

  // The file visibly carries mid-day cursors (v2 "traffic" lines).
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("\ntraffic 8\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Fleet, RestoreRejectsMismatchedFleets) {
  obs::Registry registry;
  util::ThreadPool pool(1);
  FleetManager fleet(make_specs(8), make_options(&pool, nullptr, &registry),
                     shared_library());
  fleet.run(3);
  const std::string bytes = checkpoint_bytes(fleet);

  // Tenant count mismatch.
  {
    FleetManager other(make_specs(4), make_options(&pool, nullptr, &registry),
                       shared_library());
    std::istringstream is(bytes);
    EXPECT_THROW(other.restore_checkpoint(is), std::runtime_error);
  }
  // Fault topology mismatch: same count, fault profile on a different
  // tenant.
  {
    std::vector<TenantSpec> specs = make_specs(8);
    specs[3].fault_profile.reset();
    fault::FaultProfile profile;
    profile.drop_prob = 0.10;
    specs[4].fault_profile = profile;
    FleetManager other(std::move(specs),
                       make_options(&pool, nullptr, &registry),
                       shared_library());
    std::istringstream is(bytes);
    EXPECT_THROW(other.restore_checkpoint(is), std::runtime_error);
  }
  // Seed mismatch (a checkpoint from some other fleet's stream family).
  {
    FleetOptions options = make_options(&pool, nullptr, &registry);
    options.seed = 778;
    FleetManager other(make_specs(8), options, shared_library());
    std::istringstream is(bytes);
    EXPECT_THROW(other.restore_checkpoint(is), std::runtime_error);
  }
  // A well-formed v1 checkpoint: the v2 bytes without the per-tenant
  // "traffic" lines, under a v1 header. Only v2 is read.
  {
    std::string v1;
    std::istringstream lines(bytes);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("traffic ", 0) == 0) continue;
      if (line == "rac-fleet-checkpoint v2") line = "rac-fleet-checkpoint v1";
      v1 += line + "\n";
    }
    ASSERT_NE(v1, bytes);
    FleetManager other(make_specs(8), make_options(&pool, nullptr, &registry),
                       shared_library());
    std::istringstream is(v1);
    EXPECT_THROW(other.restore_checkpoint(is), std::runtime_error);
  }
  // Trailing garbage after the end trailer (file loader only).
  {
    const std::string path =
        ::testing::TempDir() + "/rac_fleet_garbage_test.rac";
    std::ostringstream contents;
    contents << bytes << "trailing-garbage\n";
    {
      std::ofstream out(path, std::ios::binary);
      out << contents.str();
    }
    FleetManager other(make_specs(8), make_options(&pool, nullptr, &registry),
                       shared_library());
    EXPECT_THROW(restore_fleet_checkpoint_file(path, other),
                 std::runtime_error);
    std::remove(path.c_str());
  }
}

// Replaces the last line of `text` that starts with `prefix`.
std::string with_last_line(const std::string& text, const std::string& prefix,
                           const std::string& line) {
  const std::size_t at = text.rfind("\n" + prefix) + 1;
  EXPECT_NE(at, 0u) << prefix;
  return text.substr(0, at) + line + text.substr(text.find('\n', at));
}

// A restore checks every tenant before it adopts anything: a checkpoint
// whose last tenant is bad, in its file bytes or in its agent's
// configuration, leaves the fleet exactly as it was.
TEST(Fleet, FailedRestoreAdoptsNothing) {
  obs::Registry registry;
  util::ThreadPool pool(1);
  FleetManager donor(make_specs(4), make_options(&pool, nullptr, &registry),
                     shared_library());
  donor.run(8);  // past a retrain round: the library differs too
  const std::string bytes = checkpoint_bytes(donor);

  FleetManager fleet(make_specs(4), make_options(&pool, nullptr, &registry),
                     shared_library());
  fleet.run(3);
  const std::string before = checkpoint_bytes(fleet);
  ASSERT_NE(before, bytes);

  // An all-zero noise stream is a bad file.
  {
    std::istringstream is(
        with_last_line(bytes, "env_rng ", "env_rng 0 0 0 0 0 0"));
    EXPECT_THROW(fleet.restore_checkpoint(is), std::runtime_error);
    EXPECT_TRUE(checkpoint_bytes(fleet) == before);
  }
  // A well-formed snapshot of a differently configured agent is the wrong
  // agent.
  {
    std::istringstream is(with_last_line(
        bytes, "online_epsilon ",
        "online_epsilon " + util::format_double(0.5)));
    EXPECT_THROW(fleet.restore_checkpoint(is), std::invalid_argument);
    EXPECT_TRUE(checkpoint_bytes(fleet) == before);
  }
  // A traffic cursor past the model's std::int64_t intervals.
  {
    std::istringstream is(
        with_last_line(bytes, "traffic ", "traffic 9223372036854775808"));
    EXPECT_THROW(fleet.restore_checkpoint(is), std::runtime_error);
    EXPECT_TRUE(checkpoint_bytes(fleet) == before);
  }
  // The intact checkpoint restores.
  std::istringstream is(bytes);
  fleet.restore_checkpoint(is);
  EXPECT_TRUE(checkpoint_bytes(fleet) == bytes);
}

// completed() and retrain_rounds() count up as the fleet runs. At their
// type's maximum a checkpoint used to restore, and run(2) then computed
// completed() + 2 in int: it advanced no tenant and left completed() at
// INT_MAX. The reader rejects both at INT_MAX, and run() rejects a count
// that would carry completed() past it before any tenant moves.
TEST(Fleet, ProgressCountersStopShortOfIntMax) {
  obs::Registry registry;
  util::ThreadPool pool(1);
  FleetManager donor(make_specs(4), make_options(&pool, nullptr, &registry),
                     shared_library());
  donor.run(8);
  const std::string bytes = checkpoint_bytes(donor);

  FleetManager fleet(make_specs(4), make_options(&pool, nullptr, &registry),
                     shared_library());
  for (const std::string line :
       {"completed 2147483647", "retrain_rounds 2147483647"}) {
    SCOPED_TRACE(line);
    std::istringstream is(
        with_last_line(bytes, line.substr(0, line.find(' ') + 1), line));
    EXPECT_THROW(fleet.restore_checkpoint(is), std::runtime_error);
  }

  std::istringstream is(
      with_last_line(bytes, "completed ", "completed 2147483646"));
  fleet.restore_checkpoint(is);
  ASSERT_EQ(fleet.completed(), 2147483646);
  const std::string restored = checkpoint_bytes(fleet);
  EXPECT_THROW(fleet.run(2), std::invalid_argument);
  EXPECT_TRUE(checkpoint_bytes(fleet) == restored);
  // One interval still runs from there; its retrain boundary lies past
  // INT_MAX.
  fleet.run(1);
  EXPECT_EQ(fleet.completed(), 2147483647);
}

TEST(Fleet, LibraryIsSharedCopyOnWriteAcrossTenants) {
  obs::Registry registry;
  util::ThreadPool pool(2);
  FleetManager fleet(make_specs(16), make_options(&pool, nullptr, &registry),
                     shared_library());

  // Construction hands every agent the one storage block.
  for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
    EXPECT_TRUE(fleet.agent(t).library().shares_storage_with(fleet.library()))
        << "tenant " << t;
  }
  // Retraining publishes ONE refreshed block, again shared by everyone
  // (and no longer the original storage).
  fleet.run(7);
  EXPECT_EQ(fleet.retrain_rounds(), 1);
  EXPECT_FALSE(fleet.library().shares_storage_with(shared_library()));
  for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
    EXPECT_TRUE(fleet.agent(t).library().shares_storage_with(fleet.library()))
        << "tenant " << t;
  }
}

TEST(Fleet, ShardMetricsRollUpPerTenantTelemetry) {
  obs::Registry registry;
  util::ThreadPool pool(4);
  FleetOptions options = make_options(&pool, nullptr, &registry);
  options.retrain_every = 0;
  FleetManager fleet(make_specs(16), options, shared_library());
  fleet.run(5);

  // The runner's per-iteration counter lands in per-shard registries; the
  // merged rollup must account for every tenant-interval exactly.
  const obs::MetricsSnapshot merged = fleet.shard_metrics();
  const obs::CounterSample* iterations =
      merged.counter("core.runner.iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->value, 16u * 5u);
  // And the fleet-level registry tracked the segment fan-out.
  const obs::MetricsSnapshot fleet_snap = registry.snapshot();
  const obs::CounterSample* intervals =
      fleet_snap.counter("fleet.tenant_intervals");
  ASSERT_NE(intervals, nullptr);
  EXPECT_EQ(intervals->value, 16u * 5u);
}

TEST(Fleet, RunSplitsAreInvisibleAtRetrainBoundaries) {
  // run(4); run(10); run(14) crosses the same absolute retrain boundaries
  // as run(28), so the chopped fleet finishes bit-identical to the
  // straight-through one.
  obs::Registry registry;
  util::ThreadPool pool(2);
  FleetManager chopped(make_specs(16), make_options(&pool, nullptr, &registry),
                       shared_library());
  chopped.run(4);
  chopped.run(10);
  chopped.run(14);

  FleetManager straight(make_specs(16),
                        make_options(&pool, nullptr, &registry),
                        shared_library());
  straight.run(28);

  EXPECT_EQ(chopped.completed(), 28);
  EXPECT_EQ(chopped.retrain_rounds(), straight.retrain_rounds());
  EXPECT_EQ(checkpoint_bytes(chopped), checkpoint_bytes(straight));
}

TEST(Fleet, ConstructorValidatesSpecsAndOptions) {
  obs::Registry registry;
  util::ThreadPool pool(1);
  const FleetOptions options = make_options(&pool, nullptr, &registry);

  EXPECT_THROW(FleetManager({}, options, shared_library()),
               std::invalid_argument);

  std::vector<TenantSpec> duplicate = make_specs(4);
  duplicate[3].id = duplicate[0].id;
  EXPECT_THROW(FleetManager(std::move(duplicate), options, shared_library()),
               std::invalid_argument);

  std::vector<TenantSpec> negative = make_specs(4);
  negative[0].id = -1;
  EXPECT_THROW(FleetManager(std::move(negative), options, shared_library()),
               std::invalid_argument);

  FleetOptions zero_shards = options;
  zero_shards.shard_count = 0;
  EXPECT_THROW(FleetManager(make_specs(4), zero_shards, shared_library()),
               std::invalid_argument);

  FleetOptions negative_retrain = options;
  negative_retrain.retrain_every = -1;
  EXPECT_THROW(
      FleetManager(make_specs(4), negative_retrain, shared_library()),
      std::invalid_argument);

  FleetManager fleet(make_specs(4), options, shared_library());
  EXPECT_THROW(fleet.run(-1), std::invalid_argument);
}

}  // namespace
}  // namespace rac::fleet
