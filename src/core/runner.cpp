#include "core/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "obs/profiler.hpp"

namespace rac::core {

double AgentTrace::mean_response_ms(int from, int to) const {
  if (to < 0) to = static_cast<int>(records.size());
  from = std::max(0, from);
  to = std::min(to, static_cast<int>(records.size()));
  // No records in range: there is no mean. NaN (not 0) so that a caller
  // averaging per-segment means cannot silently dilute its aggregate with
  // fabricated perfect-latency intervals.
  if (from >= to) return std::numeric_limits<double>::quiet_NaN();
  double total = 0.0;
  for (int i = from; i < to; ++i) {
    total += records[static_cast<std::size_t>(i)].response_ms;
  }
  return total / static_cast<double>(to - from);
}

int AgentTrace::settled_iteration(int from, int to, int window,
                                  double tolerance) const {
  const int n = to < 0 ? static_cast<int>(records.size())
                       : std::min(to, static_cast<int>(records.size()));
  const int first = std::max(from, 0);
  if (window < 1 || first + window > n) return -1;

  // A candidate is stable iff |rt_i - mean| / mean <= tolerance for every
  // i in [candidate, n), where the mean runs over the trailing window
  // clipped at `candidate`. Only the first window-1 positions clip, so the
  // check splits into a per-candidate part over those positions and a
  // candidate-independent part over full windows -- O(n * window) overall
  // instead of the naive O((n - from)^2 * window).
  // A non-finite response time must fail its windows, not poison them: a
  // NaN folded into the prefix sums would make every later range's mean
  // NaN, and `!(mean > 0.0 && ...)` would then count those positions as
  // stable. Track non-finite entries in a parallel prefix count and
  // substitute 0 into the sum so ranges beyond the bad entry stay exact.
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<int> nonfinite(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    const double rt = records[static_cast<std::size_t>(i)].response_ms;
    const bool finite = std::isfinite(rt);
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + (finite ? rt : 0.0);
    nonfinite[static_cast<std::size_t>(i) + 1] =
        nonfinite[static_cast<std::size_t>(i)] + (finite ? 0 : 1);
  }
  const auto range_mean = [&](int lo, int hi) {  // over [lo, hi]
    return (prefix[static_cast<std::size_t>(hi) + 1] -
            prefix[static_cast<std::size_t>(lo)]) /
           static_cast<double>(hi - lo + 1);
  };
  const auto within = [&](int i, int lo, int hi) {  // window [lo, hi] ∋ i
    if (nonfinite[static_cast<std::size_t>(hi) + 1] -
            nonfinite[static_cast<std::size_t>(lo)] >
        0) {
      return false;
    }
    const double mean = range_mean(lo, hi);
    const double rt = records[static_cast<std::size_t>(i)].response_ms;
    return !(mean > 0.0 && std::abs(rt - mean) / mean > tolerance);
  };

  // all_full_from[i]: every full-window position j >= i passes the check.
  std::vector<char> all_full_from(static_cast<std::size_t>(n) + 1, 1);
  for (int i = n - 1; i >= window - 1; --i) {
    all_full_from[static_cast<std::size_t>(i)] =
        all_full_from[static_cast<std::size_t>(i) + 1] &&
        within(i, i - window + 1, i);
  }

  for (int candidate = first; candidate + window <= n; ++candidate) {
    bool stable = all_full_from[static_cast<std::size_t>(candidate) +
                                static_cast<std::size_t>(window) - 1] != 0;
    for (int i = candidate; stable && i < candidate + window - 1; ++i) {
      stable = within(i, candidate, i);
    }
    if (stable) return candidate;
  }
  return -1;
}

AgentTrace run_agent(env::Environment& environment, ConfigAgent& agent,
                     const ContextSchedule& schedule, int iterations,
                     const RunOptions& options) {
  if (!schedule.empty() && schedule.front().start_iteration < 0) {
    throw std::invalid_argument("run_agent: negative schedule start_iteration");
  }
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].start_iteration <= schedule[i - 1].start_iteration) {
      throw std::invalid_argument("run_agent: schedule not sorted");
    }
  }
  if (options.start_iteration < 0 || options.start_iteration > iterations) {
    throw std::invalid_argument(
        "run_agent: start_iteration outside [0, iterations]");
  }
  if (options.checkpoint_every < 0) {
    throw std::invalid_argument("run_agent: negative checkpoint_every");
  }
  const bool checkpointing = options.checkpoint_every > 0;
  if (checkpointing && options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "run_agent: checkpoint_every set without a checkpoint_path");
  }
  if (options.robustness.enabled && options.robustness.max_retries < 0) {
    throw std::invalid_argument("run_agent: negative max_retries");
  }

  obs::Registry& registry = obs::registry_or_default(options.registry);
  obs::Counter& c_iterations = registry.counter("core.runner.iterations");
  obs::Counter& c_traced = registry.counter("core.runner.trace_events");
  obs::Histogram& h_iteration =
      registry.histogram("core.runner.iteration_us", obs::latency_us_bounds());
  obs::Counter& c_checkpoint_writes =
      registry.counter("core.checkpoint.writes");
  obs::Counter& c_checkpoint_bytes = registry.counter("core.checkpoint.bytes");
  obs::Histogram& h_checkpoint = registry.histogram(
      "core.checkpoint.write_us", obs::latency_us_bounds());
  obs::Counter& c_measure_retries =
      registry.counter("core.fault.measure_retries");
  obs::Counter& c_missing = registry.counter("core.fault.missing_intervals");
  obs::Counter& c_backoff = registry.counter("core.fault.backoff_units");
  obs::Counter& c_held = registry.counter("core.fault.held_samples");

  // A run's checkpoints are all about the same size, so each one's agent
  // text is built in the storage of the one before: the stream writes into
  // it without regrowing, and the text moves out of the stream uncopied.
  std::string agent_text;
  const auto write_checkpoint = [&](int completed) {
    std::ostringstream state(std::move(agent_text));
    if (!agent.save_state(state)) {
      throw std::invalid_argument(
          "run_agent: checkpointing requested but the agent does not "
          "support save_state");
    }
    RunCheckpoint checkpoint;
    checkpoint.completed_iterations = static_cast<std::uint64_t>(completed);
    checkpoint.traffic_interval = environment.traffic_interval();
    checkpoint.agent_state = std::move(state).str();
    {
      const obs::ProfileScope profile("core.checkpoint.write", h_checkpoint);
      write_checkpoint_file(options.checkpoint_path, checkpoint);
    }
    c_checkpoint_writes.add(1);
    c_checkpoint_bytes.add(checkpoint.agent_state.size());
    agent_text = std::move(checkpoint.agent_state);
    agent_text.clear();
  };

  AgentTrace trace;
  trace.agent = agent.name();
  trace.records.reserve(
      static_cast<std::size_t>(iterations - options.start_iteration));

  // Fast-forward the schedule to the resume point: apply the context in
  // effect at start_iteration (only the last shadowing entry -- replaying
  // intermediate contexts would needlessly perturb a surviving
  // environment; set_context is a no-op when the context is unchanged).
  std::size_t next_switch = 0;
  std::size_t last_past = schedule.size();  // sentinel: none
  while (next_switch < schedule.size() &&
         schedule[next_switch].start_iteration < options.start_iteration) {
    last_past = next_switch;
    ++next_switch;
  }
  if (last_past != schedule.size()) {
    environment.set_context(schedule[last_past].context);
  }

  for (int iter = options.start_iteration; iter < iterations; ++iter) {
    while (next_switch < schedule.size() &&
           schedule[next_switch].start_iteration == iter) {
      environment.set_context(schedule[next_switch].context);
      ++next_switch;
    }
    config::Configuration applied;
    env::Measurement measured;
    env::PerfSample sample;
    int attempts = 1;
    bool missing = false;
    {
      const obs::ProfileScope iteration_profile("runner.iteration",
                                                h_iteration);
      {
        const obs::ProfileScope decide_profile("runner.decide");
        applied = agent.decide();
      }
      {
        const obs::ProfileScope measure_profile("runner.measure");
        measured = environment.measure_interval(applied);
        // Paper-exact path (robustness off): every interval lands, a lost
        // one as its timeout sentinel. The hardened path retries with
        // exponential backoff in simulated time: each retry is accounted
        // as 1, 2, 4, ... backoff units (this layer never sleeps --
        // wall-clock is banned here and the environments advance their
        // own clocks).
        std::uint64_t backoff = 1;
        while (options.robustness.enabled && measured.lost &&
               attempts <= options.robustness.max_retries) {
          ++attempts;
          c_measure_retries.add(1);
          c_backoff.add(backoff);
          backoff *= 2;
          measured = environment.measure_interval(applied);
        }
      }
      missing = options.robustness.enabled && measured.lost;
      if (!missing) {
        sample = measured.sample;
        const obs::ProfileScope observe_profile("runner.observe");
        agent.observe(applied, sample);
      } else {
        // Interval lost for good: hold the last decision. The agent is
        // not told anything -- a fabricated observation would teach it
        // about an interval that never happened.
        c_missing.add(1);
        if (!trace.records.empty()) {
          sample.response_ms = trace.records.back().response_ms;
          sample.throughput_rps = trace.records.back().throughput_rps;
          c_held.add(1);
        }
      }
    }
    c_iterations.add(1);

    IterationRecord record;
    record.iteration = iter;
    record.response_ms = sample.response_ms;
    record.throughput_rps = sample.throughput_rps;
    record.configuration = applied;
    record.context = environment.context();
    trace.records.push_back(record);

    if (options.sink != nullptr) {
      obs::TraceEvent event;
      event.iteration = iter;
      event.agent = trace.agent;
      const auto& values = applied.values();
      event.state.assign(values.begin(), values.end());
      event.response_ms = sample.response_ms;
      event.throughput_rps = sample.throughput_rps;
      event.measure_attempts = attempts;
      event.measurement_missing = missing;
      event.fault_note = measured.fault_note;
      event.context = record.context.name();
      agent.annotate(event);
      options.sink->emit(event);
      c_traced.add(1);
    }

    if (checkpointing && ((iter + 1) % options.checkpoint_every == 0 ||
                          iter + 1 == iterations)) {
      write_checkpoint(iter + 1);
    }
  }
  if (options.sink != nullptr) options.sink->flush();
  return trace;
}

AgentTrace run_agent(env::Environment& environment, ConfigAgent& agent,
                     const ContextSchedule& schedule, int iterations) {
  return run_agent(environment, agent, schedule, iterations, RunOptions{});
}

}  // namespace rac::core
