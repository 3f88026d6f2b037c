// Fixed-size fork-join pool for embarrassingly-parallel fan-out.
//
// The expensive phases of the reproduction -- Algorithm-2 policy
// initialization (contexts, and the coarse samples inside each context)
// and the bench harnesses' multi-agent comparisons -- are independent
// tasks over independent environments. Determinism is the design
// constraint: `parallel_for` decomposes work by index, results are written
// to per-index slots, and callers derive any randomness from
// (base_seed, task_index) via `derive_seed`, so output is bit-identical at
// every thread count and under any schedule.
//
// Help-while-waiting: the thread that calls `parallel_for` does not sleep
// while its region runs. It claims and runs queued tasks until the region
// drains -- tasks of its own region first, then tasks of regions nested
// under it (submitted by one of its tasks, at any depth). A task may
// therefore fan out again: the nested region spreads over every idle
// thread while its submitter works through it too, and nothing deadlocks
// on a saturated pool. A waiting thread never picks up unrelated work, so
// it returns as soon as its own region is done, and the profiler's
// anchors (obs/profiler.hpp) always find the helper's open phases to be a
// prefix of the task's captured path.
//
// A pool of size N spawns N-1 workers; the calling thread is the N-th, so
// one external caller never has more than N tasks running at once. A pool
// of size 1 spawns no threads at all: every region runs inline on the
// caller in index order -- the exact serial path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rac::util {

/// Parse a RAC_THREADS-style thread-count override. Returns nullopt for
/// nullptr, an empty string, trailing garbage ("4x"), non-numeric input,
/// zero, negative values, or anything that overflows -- every rejection
/// means "fall back to hardware concurrency". Exposed separately from
/// default_thread_count so the accept/reject table is unit-testable
/// without mutating the process environment.
std::optional<std::size_t> parse_thread_count(const char* text) noexcept;

/// Thread count requested via the RAC_THREADS environment variable;
/// hardware_concurrency when unset (minimum 1). A set-but-invalid value
/// (garbage, 0, negative) also falls back, with a logged warning -- a typo
/// in a job script must not silently serialize or wedge the run.
std::size_t default_thread_count();

/// Optional telemetry callbacks (wired to the metrics registry by
/// obs::pool_telemetry). Both may be empty; they are invoked from every
/// thread that runs tasks and must be thread-safe.
struct PoolTelemetry {
  /// Unclaimed tasks after every enqueue batch / claim.
  std::function<void(std::size_t)> queue_depth;
  /// Wall-clock latency of every completed task, in microseconds.
  std::function<void(double)> task_us;
};

class ThreadPool {
 public:
  /// `threads` == 0 means default_thread_count(). A pool of size N runs at
  /// most N tasks at once per external caller: N-1 workers plus the caller.
  explicit ThreadPool(std::size_t threads = 0, PoolTelemetry telemetry = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return threads_; }

  /// Invoke `body(i)` for every i in [0, n) and block until all complete,
  /// running tasks on the calling thread while it waits. Every task runs
  /// exactly once even if another throws; the exception of the
  /// lowest-index failing task is rethrown (deterministically) after the
  /// region drains. Safe to call from inside a task.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// parallel_for that collects `body(i)` into slot i of the result (the
  /// result type must be default-constructible). Output order == input
  /// order regardless of scheduling.
  template <typename F>
  auto parallel_map(std::size_t n, F&& body)
      -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    std::vector<std::invoke_result_t<F&, std::size_t>> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = body(i); });
    return out;
  }

 private:
  // Bookkeeping of one parallel_for call; lives on the submitter's stack.
  // `next` and `unfinished` are guarded by the pool's mutex_.
  struct Region {
    const std::function<void(std::size_t)>* body = nullptr;
    const Region* parent = nullptr;  // region of the submitting task, if any
    std::size_t size = 0;
    std::size_t next = 0;        // lowest unclaimed index
    std::size_t unfinished = 0;  // tasks not yet completed
    std::vector<std::exception_ptr> errors;  // one slot per task index
  };
  struct Task {
    Region* region = nullptr;
    std::size_t index = 0;
  };

  // Claim the next task, oldest region first; with `scope` set, only from
  // `scope` itself or regions nested under it. Requires mutex_ held.
  std::optional<Task> claim(const Region* scope);
  // Claim one task and run it with `lock` (on mutex_) released; false when
  // nothing is claimable. Called and returns with `lock` held.
  bool help(const Region* scope, std::unique_lock<std::mutex>& lock);
  void worker_loop();

  // The region whose task the calling thread is running (nullptr outside
  // any task); a region submitted from inside a task records it as parent.
  static thread_local const Region* current_;

  std::size_t threads_;
  PoolTelemetry telemetry_;
  std::mutex mutex_;
  std::condition_variable wake_;  // new tasks queued, or a region drained
  std::vector<Region*> open_;     // regions with unclaimed tasks, FIFO
  std::size_t queued_ = 0;        // unclaimed tasks across open_
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace rac::util
