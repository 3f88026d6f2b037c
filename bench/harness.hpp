// Shared plumbing for the figure/table reproduction harnesses.
//
// Every bench binary is standalone: it builds whatever offline policies it
// needs, replays the paper's scenario, prints the series as an aligned
// table AND as CSV, renders an ASCII chart of the figure, and ends with a
// PAPER-vs-MEASURED note (EXPERIMENTS.md aggregates these).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ascii_chart.hpp"
#include "util/table.hpp"

namespace rac::bench {

/// Environment options used across all harnesses (sigma 0.10 measurement
/// noise, 400 emulated browsers).
env::AnalyticEnvOptions default_env_options(std::uint64_t seed,
                                            double noise_sigma = 0.10);

std::unique_ptr<env::AnalyticEnv> make_env(const env::SystemContext& context,
                                           std::uint64_t seed,
                                           double noise_sigma = 0.10);

/// Offline-train one initial policy per context (Algorithm 2 on offline
/// traces of that context).
core::InitialPolicyLibrary build_offline_library(
    const std::vector<env::SystemContext>& contexts, std::uint64_t seed = 7);

/// The Figure-5/10 scenario: context-1 for 30 iterations, then context-2,
/// then context-3.
core::ContextSchedule paper_schedule();

/// Print an iteration-by-iteration table + CSV + chart for a set of traces
/// over the same schedule.
void report_traces(const std::string& title, const std::string& x_label,
                   const std::vector<core::AgentTrace>& traces);

/// Print a banner line for the artifact being reproduced.
///
/// The first call also starts the bench's observability session: when
/// $RAC_BENCH_REPORT names a directory, a `rac-bench-report v1` JSON
/// (profiler phase tree, metrics snapshot, process stats, decision-trace
/// digest; see obs/bench_report.hpp) is written to
/// `<dir>/<binary name>.json` at process exit. RAC_BENCH_REPORT and
/// RAC_TRACE are independent: setting both produces both the JSONL trace
/// and the report, and the report's digest covers the same events the
/// trace file received.
void banner(const std::string& artifact, const std::string& description);

/// True when $RAC_BENCH_QUICK=1: gated benches shrink iteration and sweep
/// counts so the regression-check suite runs in seconds, deterministically.
bool quick();

/// `full` normally, `quick_value` under RAC_BENCH_QUICK=1.
int scaled(int full, int quick_value);

/// Seed recorded in this bench's report run ID (default 0); call with the
/// scenario's primary seed before exit.
void set_report_seed(std::uint64_t seed);

/// Print the paper-vs-measured summary note.
void paper_note(const std::string& expectation, const std::string& measured);

/// The process-wide decision-trace sink shared by every `run_traced` call:
/// it feeds a JSONL sink at $RAC_TRACE when that variable is set and the
/// report digest when $RAC_BENCH_REPORT is, and drops events otherwise.
/// Lets any bench binary produce machine-diffable traces with
/// `RAC_TRACE=out.jsonl ./bench_...`.
obs::TraceSink& trace_sink();

/// `core::run_agent` with the shared trace sink attached.
core::AgentTrace run_traced(env::Environment& environment,
                            core::ConfigAgent& agent,
                            const core::ContextSchedule& schedule,
                            int iterations);

/// Run independent scenario thunks concurrently on the process-wide worker
/// pool (RAC_THREADS); thunk i's trace lands in slot i, so report order
/// matches construction order at any thread count. Each thunk must own or
/// exclusively reference its agent and environment -- construct them
/// before building the thunks, never inside a shared object.
std::vector<core::AgentTrace> run_parallel(
    const std::vector<std::function<core::AgentTrace()>>& runs);

/// Print the default registry's metrics whose names start with one of
/// `prefixes` (all metrics when empty) -- the benches' window into what the
/// pipeline actually did (TD sweeps, evaluations, violations, switches).
void report_metrics(const std::vector<std::string>& prefixes = {});

}  // namespace rac::bench
