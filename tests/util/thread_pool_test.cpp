#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace rac::util {
namespace {

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  ThreadPool pool(4);
  const auto out =
      pool.parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, SizeOnePoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(3, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);  // no worker threads exist
    order.push_back(i);
    pool.parallel_for(2, [&](std::size_t j) {
      order.push_back(10 * (i + 1) + j);
    });
  });
  // The exact serial order, nested regions included.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 10, 11, 1, 20, 21, 2, 30, 31}));
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

// The lowest-index exception is rethrown -- deterministically, regardless
// of which worker hit its error first -- and every task still runs.
TEST(ThreadPool, ExceptionPropagationIsDeterministic) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(16, [&](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i >= 5) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5") << "at " << threads << " threads";
    }
    EXPECT_EQ(ran.load(), 16) << "at " << threads << " threads";
  }
}

// A nested region fans out over the whole pool: the inner tasks of one
// outer task can only all meet at the latch if every thread of the pool
// runs one of them at once. (The second outer task is empty, so whichever
// thread runs it is free again.) Under an inline-nesting pool the inner
// tasks would run one after another and each would wait out the timeout.
TEST(ThreadPool, NestedRegionFansOutAcrossThePool) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::atomic<std::size_t> met{0};
    pool.parallel_for(2, [&](std::size_t outer) {
      if (outer != 0) return;
      std::latch rendezvous(static_cast<std::ptrdiff_t>(threads));
      pool.parallel_for(threads, [&](std::size_t) {
        rendezvous.count_down();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!rendezvous.try_wait()) {
          if (std::chrono::steady_clock::now() > deadline) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        met.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(met.load(), threads) << "at " << threads << " threads";
  }
}

// Three levels of nesting with more outer tasks than threads: every
// waiting thread keeps helping, nothing deadlocks, and every result lands
// in its by-index slot.
TEST(ThreadPool, ThreeLevelNestingCompletesWithByIndexResults) {
  constexpr std::size_t kOuter = 9, kMid = 5, kInner = 7;
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::vector<std::size_t> out(kOuter * kMid * kInner, 0);
    pool.parallel_for(kOuter, [&](std::size_t i) {
      pool.parallel_for(kMid, [&](std::size_t j) {
        pool.parallel_for(kInner, [&](std::size_t k) {
          out[(i * kMid + j) * kInner + k] = 100 * i + 10 * j + k + 1;
        });
      });
    });
    for (std::size_t i = 0; i < kOuter; ++i) {
      for (std::size_t j = 0; j < kMid; ++j) {
        for (std::size_t k = 0; k < kInner; ++k) {
          ASSERT_EQ(out[(i * kMid + j) * kInner + k], 100 * i + 10 * j + k + 1)
              << "at " << threads << " threads";
        }
      }
    }
  }
}

// Nested failures: each outer task rethrows its region's lowest-index
// inner exception, and the caller sees the lowest failing outer index --
// the same message at every thread count, with every task still run.
TEST(ThreadPool, NestedExceptionIsDeterministicAndEveryTaskRuns) {
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(6, [&](std::size_t i) {
        pool.parallel_for(8, [&](std::size_t j) {
          ran.fetch_add(1, std::memory_order_relaxed);
          if (i >= 2 && j >= 3) {
            throw std::runtime_error(std::to_string(i) + "." +
                                     std::to_string(j));
          }
        });
      });
      FAIL() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "2.3") << "at " << threads << " threads";
    }
    EXPECT_EQ(ran.load(), 48) << "at " << threads << " threads";
  }
}

// The helping rule: a thread waiting inside outer task i runs only inner
// tasks of i (or nothing) -- never another outer task, never another outer
// task's inner work -- so it returns as soon as its own work is done. Only
// threads outside every outer task (idle workers, the top-level caller)
// may pick up any of them.
thread_local int t_outer = -1;

TEST(ThreadPool, WaitingThreadRunsOnlyWorkNestedInItsOwnRegion) {
  for (std::size_t threads = 2; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::atomic<int> violations{0};
    // Two heavy outer tasks among light ones: once the light ones are
    // done, idle threads help both heavy regions, so each heavy waiter
    // soon finds its own tasks all claimed while the other's are queued.
    pool.parallel_for(2 * threads, [&](std::size_t i) {
      if (t_outer != -1) violations.fetch_add(1);
      const int outer = t_outer;
      t_outer = static_cast<int>(i);
      pool.parallel_for(i < 2 ? 48 : 2, [&](std::size_t) {
        if (t_outer != -1 && t_outer != static_cast<int>(i)) {
          violations.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
      t_outer = outer;
    });
    EXPECT_EQ(violations.load(), 0) << "at " << threads << " threads";
  }
}

// The caller is the N-th thread: a size-N pool never runs more than N
// leaf tasks at once, flat or nested.
TEST(ThreadPool, NeverRunsMoreTasksThanThreads) {
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> high_water{0};
    const auto leaf = [&](std::size_t) {
      const std::size_t now = in_flight.fetch_add(1) + 1;
      std::size_t seen = high_water.load();
      while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      in_flight.fetch_sub(1);
    };
    pool.parallel_for(4 * threads, leaf);
    pool.parallel_for(3, [&](std::size_t) { pool.parallel_for(6, leaf); });
    EXPECT_GE(high_water.load(), 1u);
    EXPECT_LE(high_water.load(), threads) << "at " << threads << " threads";
  }
}

TEST(ThreadPool, TelemetryHooksFireOncePerTask) {
  std::atomic<int> tasks_timed{0};
  std::atomic<int> depth_reports{0};
  PoolTelemetry telemetry;
  telemetry.task_us = [&](double us) {
    EXPECT_GE(us, 0.0);
    tasks_timed.fetch_add(1, std::memory_order_relaxed);
  };
  telemetry.queue_depth = [&](std::size_t) {
    depth_reports.fetch_add(1, std::memory_order_relaxed);
  };
  {
    ThreadPool pool(4, std::move(telemetry));
    pool.parallel_for(8, [](std::size_t) {});
  }
  EXPECT_EQ(tasks_timed.load(), 8);
  EXPECT_GE(depth_reports.load(), 1);
}

TEST(ThreadPool, ParseThreadCountAcceptsPositiveIntegersOnly) {
  EXPECT_EQ(parse_thread_count("1"), std::size_t{1});
  EXPECT_EQ(parse_thread_count("8"), std::size_t{8});
  EXPECT_EQ(parse_thread_count("  12"), std::size_t{12});  // strtol skips space
  EXPECT_EQ(parse_thread_count(nullptr), std::nullopt);
  EXPECT_EQ(parse_thread_count(""), std::nullopt);
  EXPECT_EQ(parse_thread_count("0"), std::nullopt);
  EXPECT_EQ(parse_thread_count("-3"), std::nullopt);
  EXPECT_EQ(parse_thread_count("lots"), std::nullopt);
  EXPECT_EQ(parse_thread_count("4x"), std::nullopt);  // trailing garbage
  EXPECT_EQ(parse_thread_count("3.5"), std::nullopt);
  EXPECT_EQ(parse_thread_count("99999999999999999999999"),
            std::nullopt);  // overflows long
}

TEST(ThreadPool, DefaultThreadCountReadsEnvironment) {
  ASSERT_EQ(setenv("RAC_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  ASSERT_EQ(unsetenv("RAC_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1u);
}

// A set-but-invalid RAC_THREADS falls back to hardware concurrency AND
// warns: a typo in a job script must be visible, not a silent one-thread
// (or hardware-wide) surprise.
TEST(ThreadPool, DefaultThreadCountWarnsOnInvalidEnvironment) {
  std::vector<std::string> warnings;
  set_log_sink([&](const std::string& line) { warnings.push_back(line); });
  for (const char* bad : {"0", "-2", "lots", "4x"}) {
    ASSERT_EQ(setenv("RAC_THREADS", bad, 1), 0);
    EXPECT_GE(default_thread_count(), 1u) << "RAC_THREADS=" << bad;
  }
  ASSERT_EQ(unsetenv("RAC_THREADS"), 0);
  set_log_sink(nullptr);
  ASSERT_EQ(warnings.size(), 4u);
  for (const auto& line : warnings) {
    EXPECT_NE(line.find("RAC_THREADS"), std::string::npos) << line;
  }
  // The unset case must stay quiet.
  warnings.clear();
  set_log_sink([&](const std::string& line) { warnings.push_back(line); });
  EXPECT_GE(default_thread_count(), 1u);
  set_log_sink(nullptr);
  EXPECT_TRUE(warnings.empty());
}

TEST(DeriveSeed, DeterministicAndIndexSensitive) {
  EXPECT_EQ(derive_seed(7, 0), derive_seed(7, 0));
  EXPECT_NE(derive_seed(7, 0), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));
  // Sequential indices from the same base must give unrelated streams:
  // spot-check that the first draws differ.
  Rng a(derive_seed(42, 0));
  Rng b(derive_seed(42, 1));
  EXPECT_NE(a.uniform(), b.uniform());
}

}  // namespace
}  // namespace rac::util
