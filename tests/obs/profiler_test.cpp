// Hierarchical phase profiler: nesting arithmetic under a fake clock, the
// zero-overhead disabled path (provably no clock reads), anchor-based
// determinism across pool workers, reset semantics, and the acceptance
// check that profiling cannot perturb the decisions it observes.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "env/sim_env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rac::obs {
namespace {

// Injectable clock: ClockFn is a plain function pointer, so the test
// advances file-scope state instead of capturing locals.
std::atomic<std::uint64_t> g_fake_now{0};
std::atomic<std::uint64_t> g_clock_reads{0};

std::uint64_t fake_clock() {
  g_clock_reads.fetch_add(1, std::memory_order_relaxed);
  return g_fake_now.load(std::memory_order_relaxed);
}

void advance_us(std::uint64_t us) {
  g_fake_now.fetch_add(us * 1000, std::memory_order_relaxed);
}

// Every test runs with profiling globally enabled unless it flips the
// switch itself; restore the switch and the default profiler's clock on
// exit (histogram scopes record into the default profiler).
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_profiling(true);
    g_fake_now.store(0);
    g_clock_reads.store(0);
    profiler_.set_clock(fake_clock);
  }
  void TearDown() override {
    set_profiling(true);
    Profiler::default_profiler().set_clock(nullptr);
  }

  Profiler profiler_;
};

TEST_F(ProfilerTest, NestedScopesRecordInclusiveAndExclusive) {
  {
    ProfileScope outer("outer", &profiler_);
    advance_us(10);
    {
      ProfileScope inner("inner", &profiler_);
      advance_us(3);
    }
    advance_us(2);
  }

  const PhaseNode root = profiler_.snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  const PhaseNode* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_DOUBLE_EQ(outer->inclusive_us, 15.0);
  EXPECT_DOUBLE_EQ(outer->exclusive_us, 12.0);

  const PhaseNode* inner = root.find("outer/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 1u);
  EXPECT_DOUBLE_EQ(inner->inclusive_us, 3.0);
  EXPECT_DOUBLE_EQ(inner->exclusive_us, 3.0);
}

TEST_F(ProfilerTest, RepeatedScopesAccumulateCallsAndTime) {
  for (int i = 0; i < 4; ++i) {
    ProfileScope scope("phase", &profiler_);
    advance_us(5);
  }
  const PhaseNode root = profiler_.snapshot();
  const PhaseNode* phase = root.child("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->calls, 4u);
  EXPECT_DOUBLE_EQ(phase->inclusive_us, 20.0);
}

TEST_F(ProfilerTest, DisabledProfilingTakesNoClockReadsAndTouchesNoTree) {
  Registry registry;
  Histogram& histogram =
      registry.histogram("test.disabled_us", latency_us_bounds());
  Profiler& global = Profiler::default_profiler();
  global.set_clock(fake_clock);
  set_profiling(false);
  g_clock_reads.store(0);
  {
    ProfileScope outer("outer", &profiler_);
    ProfileScope inner("inner", &profiler_);
    ProfileScope timed("test.disabled_timed", histogram);
    advance_us(5);
  }
  EXPECT_EQ(g_clock_reads.load(), 0u);
  EXPECT_TRUE(profiler_.snapshot().children.empty());
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(global.snapshot().child("test.disabled_timed"), nullptr);

  // Re-enabling starts recording again in the same profiler.
  set_profiling(true);
  { ProfileScope scope("after", &profiler_); }
  const PhaseNode root = profiler_.snapshot();
  EXPECT_NE(root.child("after"), nullptr);
  EXPECT_GT(g_clock_reads.load(), 0u);
}

TEST_F(ProfilerTest, ChildrenMergeSortedByName) {
  {
    ProfileScope outer("outer", &profiler_);
    { ProfileScope b("zeta", &profiler_); }
    { ProfileScope a("alpha", &profiler_); }
    { ProfileScope c("mid", &profiler_); }
  }
  const PhaseNode root = profiler_.snapshot();
  const PhaseNode* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(outer->children.size(), 3u);
  EXPECT_EQ(outer->children[0].name, "alpha");
  EXPECT_EQ(outer->children[1].name, "mid");
  EXPECT_EQ(outer->children[2].name, "zeta");
}

// The determinism contract: the same fan-out profiled on the submitting
// thread and on worker threads must merge to an identical structure signature,
// with the anchor frames pass-through (calls unchanged) in both.
TEST_F(ProfilerTest, AnchorAttachesWorkerScopesAtTheCapturedPath) {
  Profiler inline_profiler;
  inline_profiler.set_clock(fake_clock);
  {
    ProfileScope build("build", &inline_profiler);
    const auto path = inline_profiler.capture_path();
    ASSERT_EQ(path, std::vector<std::string>{"build"});
    for (int i = 0; i < 2; ++i) {
      // Inline: the anchor sees "build" already open and opens nothing.
      ProfileAnchor anchor(path, &inline_profiler);
      ProfileScope task("task", &inline_profiler);
      advance_us(1);
    }
  }

  {
    ProfileScope build("build", &profiler_);
    const auto path = profiler_.capture_path();
    for (int i = 0; i < 2; ++i) {
      std::thread worker([&] {
        // Worker: no frames open, the anchor re-opens "build" pass-through.
        ProfileAnchor anchor(path, &profiler_);
        ProfileScope task("task", &profiler_);
        advance_us(1);
      });
      worker.join();
    }
  }

  const PhaseNode inline_tree = inline_profiler.snapshot();
  const PhaseNode pooled_tree = profiler_.snapshot();
  EXPECT_EQ(structure_signature(inline_tree), structure_signature(pooled_tree));

  const PhaseNode* build = pooled_tree.child("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->calls, 1u);  // anchor frames add no calls
  const PhaseNode* task = pooled_tree.find("build/task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->calls, 2u);
}

// A thread helping from inside an enclosing region already has that
// region's frames open; a task captured deeper re-opens only the rest.
TEST_F(ProfilerTest, AnchorOpensOnlyTheSuffixBelowTheThreadsOpenFrames) {
  {
    ProfileScope build("build", &profiler_);
    ProfileAnchor anchor({"build", "context"}, &profiler_);
    ProfileScope sample("sample", &profiler_);
  }
  const PhaseNode root = profiler_.snapshot();
  EXPECT_EQ(structure_signature(root),
            "root:0{build:1{context:0{sample:1{}}}}");
}

// The pool's helping rule end to end: a waiting thread runs only tasks of
// its own region or of regions nested under it, so two levels of anchored
// fan-out -- with more outer tasks than threads, so waiters have unrelated
// outer tasks queued beside them -- profile to the serial tree at every
// pool size.
TEST_F(ProfilerTest, NestedPoolFanOutProfilesTheSameAtEveryPoolSize) {
  const auto signature_at = [](std::size_t threads) {
    Profiler profiler;
    profiler.set_clock(fake_clock);
    util::ThreadPool pool(threads);
    {
      ProfileScope build("build", &profiler);
      const auto build_path = profiler.capture_path();
      pool.parallel_for(6, [&](std::size_t) {
        ProfileAnchor outer(build_path, &profiler);
        ProfileScope context("context", &profiler);
        const auto context_path = profiler.capture_path();
        pool.parallel_for(8, [&](std::size_t) {
          ProfileAnchor inner(context_path, &profiler);
          ProfileScope sample("sample", &profiler);
          advance_us(1);
        });
      });
    }
    return structure_signature(profiler.snapshot());
  };
  const std::string serial = signature_at(1);
  EXPECT_EQ(serial, "root:0{build:1{context:6{sample:48{}}}}");
  for (std::size_t threads = 2; threads <= 4; ++threads) {
    EXPECT_EQ(signature_at(threads), serial) << threads << " threads";
  }
}

TEST_F(ProfilerTest, PassThroughAnchorNodeInheritsChildSum) {
  // All scopes on a worker: the merged "fanout" frame exists only as an
  // anchor (calls == 0) and reports its children's summed time.
  const std::vector<std::string> path = {"fanout"};
  std::thread worker([&] {
    ProfileAnchor anchor(path, &profiler_);
    ProfileScope task("task", &profiler_);
    advance_us(7);
  });
  worker.join();

  const PhaseNode root = profiler_.snapshot();
  const PhaseNode* fanout = root.child("fanout");
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->calls, 0u);
  EXPECT_DOUBLE_EQ(fanout->inclusive_us, 7.0);
  EXPECT_DOUBLE_EQ(fanout->exclusive_us, 0.0);
}

TEST_F(ProfilerTest, ResetDropsRecordedTreesAndAbandonsOpenScopes) {
  { ProfileScope scope("before", &profiler_); }
  auto open = std::make_unique<ProfileScope>("open", &profiler_);
  profiler_.reset();
  open.reset();  // exit after reset must be ignored, not crash or record
  EXPECT_TRUE(profiler_.snapshot().children.empty());

  { ProfileScope scope("after", &profiler_); }
  const PhaseNode root = profiler_.snapshot();
  EXPECT_EQ(root.children.size(), 1u);
  EXPECT_NE(root.child("after"), nullptr);
}

// A histogram scope that read the clock at entry records its elapsed time
// even when a reset() abandons its frame: only the tree update is skipped.
TEST_F(ProfilerTest, HistogramScopeRecordsAcrossAReset) {
  Registry registry;
  Histogram& histogram =
      registry.histogram("test.reset_us", latency_us_bounds());
  Profiler& global = Profiler::default_profiler();
  global.set_clock(fake_clock);
  {
    ProfileScope timed("test.timed", histogram);
    advance_us(4);
  }
  auto open = std::make_unique<ProfileScope>("test.reset_timed", histogram);
  advance_us(3);
  global.reset();
  open.reset();
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 7.0);
  EXPECT_EQ(global.snapshot().child("test.reset_timed"), nullptr);
}

TEST_F(ProfilerTest, StructureSignatureIgnoresTimings) {
  Profiler other;
  other.set_clock(fake_clock);
  {
    ProfileScope a("a", &profiler_);
    advance_us(100);
    ProfileScope b("b", &profiler_);
    advance_us(1);
  }
  {
    ProfileScope a("a", &other);
    ProfileScope b("b", &other);
    advance_us(5000);
  }
  EXPECT_EQ(structure_signature(profiler_.snapshot()),
            structure_signature(other.snapshot()));
}

TEST_F(ProfilerTest, JsonAndTextRenderTheTree) {
  {
    ProfileScope outer("core.phase", &profiler_);
    advance_us(2);
    ProfileScope inner("rl.step", &profiler_);
    advance_us(1);
  }
  const PhaseNode root = profiler_.snapshot();
  const std::string json = to_json(root);
  EXPECT_NE(json.find("\"core.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"rl.step\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  const std::string text = to_text(root);
  EXPECT_NE(text.find("core.phase"), std::string::npos);
  EXPECT_NE(text.find("rl.step"), std::string::npos);
}

// Acceptance check: profiling must observe the management loop without
// perturbing it -- the decision trace is bit-identical with the profiler
// on and off.
TEST(ProfilerIntegration, DecisionTraceIdenticalWithProfilingOnAndOff) {
  const auto ctx = env::table2_context(1);
  core::PolicyInitOptions init;
  init.coarse_levels = 3;
  init.offline_td.max_sweeps = 40;

  const auto run_with_profiling = [&](bool enabled) {
    set_profiling(enabled);
    env::AnalyticEnvOptions opt;
    opt.seed = 11;
    env::AnalyticEnv offline_env(ctx, opt);
    core::InitialPolicyLibrary library;
    library.add(core::learn_initial_policy(offline_env, init));

    core::RacOptions rac_options;
    rac_options.seed = 5;
    core::RacAgent agent(rac_options, library, 0);
    env::AnalyticEnv env(ctx, opt);
    MemoryTraceSink sink;
    core::RunOptions options;
    options.sink = &sink;
    core::run_agent(env, agent, {}, 12, options);
    std::vector<std::string> lines;
    for (const auto& event : sink.events()) lines.push_back(to_json(event));
    return lines;
  };

  const auto traced_on = run_with_profiling(true);
  const auto traced_off = run_with_profiling(false);
  set_profiling(true);
  ASSERT_EQ(traced_on.size(), 12u);
  EXPECT_EQ(traced_on, traced_off);
}

// Sum of `name`'s calls at every position in the tree.
std::uint64_t phase_calls(const PhaseNode& node, std::string_view name) {
  std::uint64_t calls = node.name == name ? node.calls : 0;
  for (const auto& child : node.children) calls += phase_calls(child, name);
  return calls;
}

// Each timed site is one ProfileScope feeding both the phase tree and the
// site's histogram, so every histogram observation is one call of its
// phase: offline policy training, a checkpointed online run on the
// analytic model, and two intervals on the discrete-event simulator.
TEST(ProfilerIntegration, EachSiteHistogramCountsItsPhaseCalls) {
  set_profiling(true);
  Profiler& profiler = Profiler::default_profiler();
  profiler.reset();
  Registry registry;
  const auto ctx = env::table2_context(1);

  env::AnalyticEnvOptions opt;
  opt.seed = 11;
  opt.registry = &registry;
  core::PolicyInitOptions init;
  init.coarse_levels = 3;
  init.offline_td.max_sweeps = 40;
  init.registry = &registry;
  env::AnalyticEnv offline_env(ctx, opt);
  core::InitialPolicyLibrary library;
  library.add(core::learn_initial_policy(offline_env, init));

  core::RacOptions rac_options;
  rac_options.seed = 5;
  rac_options.registry = &registry;
  core::RacAgent agent(rac_options, library, 0);
  env::AnalyticEnv env(ctx, opt);
  core::RunOptions options;
  options.registry = &registry;
  options.checkpoint_every = 4;
  options.checkpoint_path = ::testing::TempDir() + "rac_profiler_sites.ckpt";
  core::run_agent(env, agent, {}, 12, options);
  std::remove(options.checkpoint_path.c_str());

  env::SimEnvOptions sim_options;
  sim_options.warmup_s = 40.0;
  sim_options.measure_s = 120.0;
  sim_options.registry = &registry;
  env::SimEnv sim(ctx, sim_options);
  for (int i = 0; i < 2; ++i) {
    sim.measure_interval(config::Configuration::defaults());
  }

  const PhaseNode root = profiler.snapshot();
  const auto observations = [&](const char* histogram) {
    return registry.histogram(histogram, latency_us_bounds()).count();
  };
  struct Site {
    const char* histogram;
    const char* phase;
  };
  for (const Site& site : {
           Site{"core.runner.iteration_us", "runner.iteration"},
           Site{"core.rac.select_us", "rac.select"},
           Site{"core.rac.retrain_us", "rac.retrain"},
           Site{"core.policy_init.train_us", "core.policy_init"},
           Site{"rl.td.batch_train_us", "rl.batch_train"},
           Site{"env.analytic.evaluate_us", "env.analytic.evaluate"},
           Site{"env.sim.measure_us", "env.sim.measure"},
           Site{"tiersim.interval_us", "tiersim.interval"},
           Site{"core.checkpoint.write_us", "core.checkpoint.write"},
       }) {
    EXPECT_GT(observations(site.histogram), 0u) << site.histogram;
    EXPECT_EQ(observations(site.histogram), phase_calls(root, site.phase))
        << site.histogram << " vs " << site.phase;
  }
  EXPECT_EQ(observations("core.runner.iteration_us"), 12u);
  EXPECT_EQ(observations("core.checkpoint.write_us"), 3u);
  EXPECT_EQ(observations("core.policy_init.train_us"), 1u);
  EXPECT_EQ(observations("env.sim.measure_us"), 2u);
  EXPECT_EQ(observations("tiersim.interval_us"), 2u);
}

}  // namespace
}  // namespace rac::obs
