// Hierarchical phase profiler: a call tree of named scopes, and the
// project's one timer.
//
// ProfileScope pushes a frame onto the calling thread's tree (creating the
// node on first entry) and records inclusive nanoseconds on exit; nesting
// scopes builds the phase hierarchy, and snapshot() merges every thread's
// tree into one deterministic PhaseNode tree (children sorted by name,
// per-phase calls summed across threads). A scope built with a registry
// Histogram also records its elapsed microseconds there, from the same two
// clock reads, so a site that exports a latency histogram and a phase
// costs one clock pair and the two can never disagree on what was timed.
//
// Determinism across util::ThreadPool fan-out is the hard part: a task may
// run on the thread that submitted it, on an idle worker with no frames
// open, or on a thread that is itself waiting for an enclosing region, so
// the same computation would profile under a different path at different
// thread counts. Call sites that fan out capture the submitter's open path
// with capture_path() and open a ProfileAnchor inside each task: the
// anchor re-opens the captured frames as pass-through nodes (no call
// counts, no timing), skipping the prefix of the path that is already open
// on the running thread, so the task's scopes attach at the same tree
// position wherever it runs. Skipping is sound because the pool only lets
// a waiting thread run tasks of its own region or of regions nested under
// it: the waiter's open frames are then exactly the path it captured for
// its own region, which is a prefix of every nested region's path. The
// merged tree therefore has identical structure and call counts at any
// thread count; only the timings differ, and structure_signature() strips
// those for golden comparisons.
//
// Scopes honor the process-global set_profiling switch (on by default): a
// scope built while profiling is disabled takes no clock samples, touches
// no tree and records into no histogram. The clock is injectable
// (set_clock) so tests can prove that. reset() and snapshot() require
// quiescence -- call them only when no scopes are open on other threads
// (benches snapshot after the pool has joined).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace rac::obs {

/// Whether ProfileScope and ProfileAnchor take clock samples and touch
/// the tree. Default: enabled.
void set_profiling(bool enabled) noexcept;
bool profiling_enabled() noexcept;

/// One phase in a merged snapshot. `inclusive_us` is the summed wall time
/// of the phase across all threads (a phase fanned out to N workers can
/// exceed its parent's single-thread inclusive time; exclusive clamps at
/// zero). Pass-through anchor frames carry calls == 0 and inherit the sum
/// of their children as inclusive time.
struct PhaseNode {
  std::string name;
  std::uint64_t calls = 0;
  double inclusive_us = 0.0;
  double exclusive_us = 0.0;
  std::vector<PhaseNode> children;  // sorted by name

  /// Direct child by name; nullptr when absent.
  const PhaseNode* child(std::string_view child_name) const;
  /// Descendant by '/'-separated path ("core.policy_init/rl.batch_train").
  const PhaseNode* find(std::string_view path) const;
};

/// JSON rendering (lineio shortest-decimal numbers, keys sorted by the
/// deterministic child order).
std::string to_json(const PhaseNode& root);

/// Indented human-readable table (calls, inclusive/exclusive ms).
std::string to_text(const PhaseNode& root);

/// Timing-free rendering -- names, call counts and hierarchy only. Two
/// runs executing the same phases the same number of times produce
/// byte-identical signatures regardless of thread count or wall time.
std::string structure_signature(const PhaseNode& root);

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merged tree across every thread that recorded scopes. Root is a
  /// synthetic "root" node whose children are the top-level phases.
  /// Requires quiescence (no scopes concurrently open).
  PhaseNode snapshot() const;

  /// Names of the calling thread's currently open frames, outermost
  /// first. Capture before fanning work out to a pool, then open a
  /// ProfileAnchor with the result inside each task.
  std::vector<std::string> capture_path() const;

  /// Drop all recorded trees. Requires quiescence; scopes still open in
  /// other threads are abandoned (their exit is ignored).
  void reset();

  /// Monotonic nanosecond clock override for tests; nullptr restores
  /// steady_clock.
  using ClockFn = std::uint64_t (*)();
  void set_clock(ClockFn clock) noexcept;

  /// The process-wide profiler ProfileScope records into by default.
  static Profiler& default_profiler();

  // Opaque internals (defined in profiler.cpp); public only so file-local
  // helpers there can name them.
  struct Node;
  struct ThreadTree;

 private:
  friend class ProfileScope;
  friend class ProfileAnchor;

  std::uint64_t clock_now() const;
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  ThreadTree& local_tree();
  Node* enter(const char* name);
  void exit(Node* node, std::uint64_t elapsed_ns);
  int anchor_open(const std::vector<std::string>& path);
  void anchor_close(int opened);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadTree>> trees_;
  std::atomic<ClockFn> clock_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  const std::uint64_t id_;
};

/// RAII frame in the profiler's call tree. `name` must outlive the scope
/// (string literals in practice). A scope constructed while
/// profiling_enabled() is false is a complete no-op: no clock reads, no
/// tree access, no histogram observation.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name, Profiler* profiler = nullptr);
  /// A frame in the default profiler that also records its elapsed time,
  /// in microseconds, into `histogram`. A scope that read the clock at
  /// entry always records; a reset() in between only skips the tree.
  ProfileScope(const char* name, Histogram& histogram);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
  Histogram* histogram_ = nullptr;
  Profiler::Node* node_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t epoch_ = 0;
};

/// RAII pass-through frames re-opening a captured path inside a pooled
/// task (see file comment). Opens only the suffix of `path` not already on
/// the calling thread's stack: a no-op on the submitting thread, the whole
/// path on an idle worker, the nested remainder on a thread helping from
/// inside an enclosing region.
class ProfileAnchor {
 public:
  explicit ProfileAnchor(const std::vector<std::string>& path,
                         Profiler* profiler = nullptr);
  ~ProfileAnchor();
  ProfileAnchor(const ProfileAnchor&) = delete;
  ProfileAnchor& operator=(const ProfileAnchor&) = delete;

 private:
  Profiler* profiler_;
  int opened_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace rac::obs
