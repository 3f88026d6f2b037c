// Golden determinism tests for the concurrency layer: parallel execution
// must be a pure rescheduling of the serial computation -- every learned
// policy, Q-value and trace record bit-identical at any thread count. The
// guarantees under test:
//   * learn_initial_policy measures each coarse sample on a private clone
//     reseeded from (environment seed, sample index);
//   * build_library trains contexts in independent tasks merged in input
//     order;
//   * bench-style multi-agent fan-out (one agent + environment per task)
//     reproduces the serial traces exactly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace rac::core {
namespace {

using config::Configuration;
using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;

AnalyticEnvOptions noisy_env(std::uint64_t seed) {
  AnalyticEnvOptions opt;
  opt.seed = seed;
  opt.noise_sigma = 0.10;  // noise ON: determinism must survive it
  return opt;
}

PolicyInitOptions fast_options(util::ThreadPool* pool) {
  PolicyInitOptions opt;
  opt.offline_td.max_sweeps = 80;
  opt.pool = pool;
  return opt;
}

const SystemContext kCtx{workload::MixType::kShopping, env::VmLevel::kLevel1};

TEST(ParallelDeterminism, LearnInitialPolicyIsThreadCountInvariant) {
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  AnalyticEnv serial_env(kCtx, noisy_env(7));
  AnalyticEnv parallel_env(kCtx, noisy_env(7));
  const InitialPolicy serial =
      learn_initial_policy(serial_env, fast_options(&one));
  const InitialPolicy parallel =
      learn_initial_policy(parallel_env, fast_options(&four));
  EXPECT_TRUE(exactly_equal(serial, parallel));
}

TEST(ParallelDeterminism, LearnInitialPolicyIgnoresPriorDrawsOnCloneableEnv) {
  // The per-sample clone decomposition also makes training independent of
  // how many measurements the source environment served beforehand.
  util::ThreadPool one(1);
  AnalyticEnv fresh(kCtx, noisy_env(7));
  AnalyticEnv used(kCtx, noisy_env(7));
  for (int i = 0; i < 5; ++i) used.measure(Configuration::defaults());
  EXPECT_TRUE(exactly_equal(learn_initial_policy(fresh, fast_options(&one)),
                            learn_initial_policy(used, fast_options(&one))));
}

// Library shapes under test: more contexts than threads (the onboarding
// shape), and fewer contexts than threads -- two contexts on up to four
// threads, where the per-sample regions nested inside each context task
// fan out over the otherwise idle threads.
std::vector<std::vector<SystemContext>> library_shapes() {
  return {{env::table2_context(1), env::table2_context(2),
           env::table2_context(3), env::table2_context(4),
           env::table2_context(5)},
          {env::table2_context(1), env::table2_context(2)}};
}

constexpr std::size_t kMaxThreads = 4;

// The library goldens train every shape at 1..kMaxThreads threads; a 3^4
// coarse grid keeps that affordable under ThreadSanitizer while still
// giving each context 81 coarse samples to fan out.
PolicyInitOptions library_options(util::ThreadPool* pool) {
  PolicyInitOptions opt = fast_options(pool);
  opt.coarse_levels = 3;
  return opt;
}

TEST(ParallelDeterminism, BuildLibraryBitIdenticalAcrossThreadCounts) {
  const auto make = [](const SystemContext& ctx) {
    return std::make_unique<AnalyticEnv>(ctx, noisy_env(7));
  };
  for (const auto& contexts : library_shapes()) {
    util::ThreadPool one(1);
    const auto serial = build_library(contexts, make, library_options(&one));
    ASSERT_EQ(serial.size(), contexts.size());
    for (std::size_t threads = 2; threads <= kMaxThreads; ++threads) {
      util::ThreadPool pool(threads);
      const auto parallel =
          build_library(contexts, make, library_options(&pool));
      ASSERT_EQ(parallel.size(), contexts.size());
      for (std::size_t i = 0; i < contexts.size(); ++i) {
        EXPECT_TRUE(exactly_equal(serial.at(i), parallel.at(i)))
            << contexts.size() << " contexts, context " << i << ", "
            << threads << " threads";
        EXPECT_EQ(parallel.at(i).context, contexts[i]);
      }
    }
  }
}

TEST(ParallelDeterminism, ProfilerTreeStructureIsThreadCountInvariant) {
  // The anchor-propagation contract end to end: profiling the same library
  // build serially and on 2-, 3- and 4-thread pools must merge to
  // byte-identical structure signatures (names, hierarchy, call counts) --
  // only timings may differ -- even though a context's coarse samples run
  // on whichever threads are free. Uses the default profiler because that
  // is what the instrumentation inside build_library records into.
  const auto make = [](const SystemContext& ctx) {
    return std::make_unique<AnalyticEnv>(ctx, noisy_env(7));
  };
  obs::set_profiling(true);
  obs::Profiler& profiler = obs::Profiler::default_profiler();

  for (const auto& contexts : library_shapes()) {
    const auto signature_of_build = [&](std::size_t threads) {
      util::ThreadPool pool(threads);
      profiler.reset();
      build_library(contexts, make, library_options(&pool));
      return obs::structure_signature(profiler.snapshot());
    };
    const std::string serial = signature_of_build(1);
    for (std::size_t threads = 2; threads <= kMaxThreads; ++threads) {
      EXPECT_EQ(serial, signature_of_build(threads))
          << contexts.size() << " contexts, " << threads << " threads";
    }
    // Sanity: the signature actually contains the instrumented phases.
    EXPECT_NE(serial.find("core.build_library"), std::string::npos);
    EXPECT_NE(serial.find("policy_init.coarse_sample"), std::string::npos);
    // The model evaluations nest under the sample that asked for them
    // (the profiler still holds the last build's tree).
    EXPECT_NE(profiler.snapshot().find(
                  "core.build_library/core.policy_init/"
                  "policy_init.coarse_sample/env.analytic.evaluate"),
              nullptr);
  }
  profiler.reset();
}

TEST(ParallelDeterminism, ParallelAgentRunsMatchSerial) {
  // Fig5-style fan-out: each run owns its agent and environment, so pooled
  // execution must reproduce the serial traces record for record.
  util::ThreadPool one(1);
  AnalyticEnv train_env(kCtx, noisy_env(7));
  InitialPolicyLibrary library;
  library.add(learn_initial_policy(train_env, fast_options(&one)));

  const std::vector<std::uint64_t> seeds = {100, 101, 102};
  const auto run_one = [&](std::size_t i) {
    RacOptions opt;
    opt.seed = seeds[i];
    opt.online_td.max_sweeps = 20;
    RacAgent agent(opt, library, 0);
    AnalyticEnv env(kCtx, noisy_env(seeds[i]));
    return run_agent(env, agent, {}, 25);
  };

  std::vector<AgentTrace> serial;
  for (std::size_t i = 0; i < seeds.size(); ++i) serial.push_back(run_one(i));
  util::ThreadPool four(4);
  const std::vector<AgentTrace> parallel =
      four.parallel_map(seeds.size(), run_one);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    ASSERT_EQ(parallel[t].records.size(), serial[t].records.size());
    for (std::size_t i = 0; i < serial[t].records.size(); ++i) {
      const IterationRecord& s = serial[t].records[i];
      const IterationRecord& p = parallel[t].records[i];
      EXPECT_EQ(p.iteration, s.iteration);
      EXPECT_EQ(p.response_ms, s.response_ms) << "run " << t << " iter " << i;
      EXPECT_EQ(p.throughput_rps, s.throughput_rps);
      EXPECT_TRUE(p.configuration == s.configuration);
    }
  }
}

}  // namespace
}  // namespace rac::core
