// Experiment loop shared by the evaluation harnesses: drive one agent
// against an environment for a number of measurement intervals while a
// context schedule replays workload / VM-resource changes behind the
// agent's back (exactly the paper's Figure-5/10 setup).
#pragma once

#include <string>
#include <vector>

#include "core/agent.hpp"
#include "env/environment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rac::core {

struct ScheduleEntry {
  int start_iteration = 0;  // first iteration run under this context
  env::SystemContext context;
};

/// Entries must be non-negative and strictly increasing in
/// start_iteration (run_agent validates and throws std::invalid_argument
/// otherwise); the first conventionally starts at 0.
using ContextSchedule = std::vector<ScheduleEntry>;

struct IterationRecord {
  int iteration = 0;
  double response_ms = 0.0;
  double throughput_rps = 0.0;
  config::Configuration configuration;
  env::SystemContext context;
};

struct AgentTrace {
  std::string agent;
  std::vector<IterationRecord> records;

  /// Mean response time over records [from, to) (indices into `records`,
  /// clamped to the trace; `to` == -1 means end of trace). An empty or
  /// inverted range -- from >= to after clamping, including any range on
  /// an empty trace -- has no mean and returns quiet NaN; callers
  /// aggregating per-segment means (the fleet layer does, per tenant)
  /// must check std::isnan rather than fold a fabricated 0 into averages.
  double mean_response_ms(int from = 0, int to = -1) const;

  /// First iteration >= `from` after which every response time up to `to`
  /// (exclusive; -1 = end of trace) stays within `tolerance` (relative) of
  /// the mean of the trailing `window` iterations; -1 if the range never
  /// settles. Use a `to` at a context-switch boundary to measure one
  /// segment.
  int settled_iteration(int from, int to = -1, int window = 5,
                        double tolerance = 0.25) const;
};

/// Graceful degradation of the measurement path (PR 5). Disabled by
/// default: the loop then takes every interval's reported sample exactly
/// as the paper's management station does, lost or not.
struct MeasureRobustness {
  /// Retry intervals that Environment::measure_interval reports lost.
  bool enabled = false;
  /// Additional measure_interval attempts after the first is lost.
  /// Retry cost is accounted (core.fault.backoff_units grows 1, 2, 4, ...
  /// per retry -- exponential backoff in simulated time; the loop never
  /// sleeps, wall-clock is banned in this layer). When every attempt fails
  /// the loop skips the agent's observe() and records the previous
  /// interval's sample ("hold last decision"; a zero sample when there is
  /// none).
  int max_retries = 2;
};

/// Observability and persistence attachments for a run.
struct RunOptions {
  /// One TraceEvent per iteration (state, action, measurement, reward,
  /// context-adaptation signals) is emitted here; nullptr disables tracing
  /// entirely -- the loop then does no record assembly at all.
  obs::TraceSink* sink = nullptr;
  /// Registry receiving the loop's counters/timers; nullptr means
  /// obs::default_registry().
  obs::Registry* registry = nullptr;
  /// First iteration to run (iteration numbers are absolute, so a resumed
  /// run's records continue the original numbering). The schedule entry in
  /// effect at this iteration is applied before the loop starts; a
  /// checkpoint-restored agent therefore resumes mid-schedule correctly.
  int start_iteration = 0;
  /// Checkpoint the agent every this many completed iterations, plus once
  /// when the run finishes (0 disables). Requires an agent whose
  /// save_state supports persistence and a non-empty checkpoint_path.
  int checkpoint_every = 0;
  /// Destination file for checkpoints; each write is atomic (temp file +
  /// rename), so a crash mid-write preserves the previous checkpoint.
  std::string checkpoint_path;
  /// Fallible-measurement handling; default off (paper-exact loop).
  MeasureRobustness robustness{};
};

/// Run `agent` from `options.start_iteration` (default 0) up to
/// `iterations`. The schedule's context switches are applied to the
/// environment before the matching iteration; the agent is never told.
/// Throws std::invalid_argument for malformed options (unsorted schedule,
/// negative/oversized start_iteration, checkpointing without a path or
/// with an agent that does not support save_state).
AgentTrace run_agent(env::Environment& environment, ConfigAgent& agent,
                     const ContextSchedule& schedule, int iterations,
                     const RunOptions& options);

AgentTrace run_agent(env::Environment& environment, ConfigAgent& agent,
                     const ContextSchedule& schedule, int iterations);

}  // namespace rac::core
