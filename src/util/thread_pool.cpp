#include "util/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "util/log.hpp"

namespace rac::util {

namespace {

// Raw clock reads are justified here: the timings feed PoolTelemetry
// (which obs wires into its registry), and util cannot depend on obs.
double elapsed_us(std::chrono::steady_clock::time_point start) {
  const auto end =
      std::chrono::steady_clock::now();  // rac-analyze: allow(untracked-timer)
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace

std::optional<std::size_t> parse_thread_count(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' || parsed < 1) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  const char* env = std::getenv("RAC_THREADS");
  if (env == nullptr) return fallback;
  if (const auto parsed = parse_thread_count(env)) return *parsed;
  log_warn("RAC_THREADS='", env,
           "' is not a positive integer; falling back to hardware "
           "concurrency (", fallback, ")");
  return fallback;
}

thread_local const ThreadPool::Region* ThreadPool::current_ = nullptr;

ThreadPool::ThreadPool(std::size_t threads, PoolTelemetry telemetry)
    : threads_(threads == 0 ? default_thread_count() : threads),
      telemetry_(std::move(telemetry)) {
  // The thread calling parallel_for runs tasks while it waits, so it is
  // the N-th thread; a size-1 pool spawns none and runs everything inline.
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::optional<ThreadPool::Task> ThreadPool::claim(const Region* scope) {
  // FIFO order already prefers a waiter's own region: a region is always
  // older than every region nested under it.
  const auto within_scope = [scope](const Region* region) {
    if (scope == nullptr) return true;
    for (; region != nullptr; region = region->parent) {
      if (region == scope) return true;
    }
    return false;
  };
  const auto pick = std::find_if(open_.begin(), open_.end(), within_scope);
  if (pick == open_.end()) return std::nullopt;
  Region* region = *pick;
  const Task task{region, region->next++};
  if (region->next == region->size) open_.erase(pick);
  --queued_;
  return task;
}

bool ThreadPool::help(const Region* scope, std::unique_lock<std::mutex>& lock) {
  const auto task = claim(scope);
  if (!task) return false;
  const std::size_t depth = queued_;
  lock.unlock();
  if (telemetry_.queue_depth) telemetry_.queue_depth(depth);

  Region& region = *task->region;
  const Region* const outer = current_;
  current_ = &region;
  const auto start =
      std::chrono::steady_clock::now();  // rac-analyze: allow(untracked-timer)
  try {
    (*region.body)(task->index);
  } catch (...) {
    region.errors[task->index] = std::current_exception();
  }
  if (telemetry_.task_us) telemetry_.task_us(elapsed_us(start));
  current_ = outer;

  lock.lock();
  if (--region.unfinished == 0) wake_.notify_all();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (help(nullptr, lock)) continue;
    if (stop_) return;  // stop_ set and nothing left to drain
    wake_.wait(lock);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  Region region;
  region.body = &body;
  region.parent = current_;
  region.size = n;
  region.unfinished = n;
  region.errors.resize(n);

  std::unique_lock<std::mutex> lock(mutex_);
  open_.push_back(&region);
  queued_ += n;
  const std::size_t depth = queued_;
  lock.unlock();
  if (n > 1) wake_.notify_all();
  if (telemetry_.queue_depth) telemetry_.queue_depth(depth);

  // Help until the region drains: run its tasks (or tasks nested under
  // them) while any are unclaimed, sleep while the rest finish elsewhere.
  lock.lock();
  while (region.unfinished > 0) {
    if (!help(&region, lock)) wake_.wait(lock);
  }
  lock.unlock();

  // Every task has run; the lowest-index failure wins, whatever the order.
  for (const auto& error : region.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace rac::util
