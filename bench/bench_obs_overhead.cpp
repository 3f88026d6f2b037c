// Observability overhead -- proves the telemetry subsystem is cheap enough
// to leave on in production: the full management loop (RAC agent + analytic
// environment, online retraining every interval) is timed with no trace
// sink and profiling off (the baseline), and with a null (empty tee) sink,
// an in-memory sink and a JSONL file sink, each with profiling on. The
// headline check: instrumentation overhead stays under 5% of loop time, and
// the disabled paths cost nanoseconds per operation.
//
// A shared host drifts by more than 5% between runs a second apart, so
// each instrumented run is paired with an adjacent baseline run (which one
// goes first alternates), and an arm's overhead is the median of its
// per-pair time ratios.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/rac_agent.hpp"
#include "harness.hpp"
#include "obs/profiler.hpp"
#include "util/table.hpp"

namespace {

using namespace rac;

constexpr int kIterations = 40;  // management-loop intervals per run
constexpr int kPairs = 25;       // (instrumented, baseline) pairs per arm

double run_once(const core::InitialPolicyLibrary& library,
                obs::TraceSink* sink) {
  // Fresh agent and environment per run, identical seeds: every arm does
  // exactly the same learning work, so timing differences isolate the
  // instrumentation.
  core::RacOptions options;
  options.seed = 42;
  core::RacAgent agent(options, library, 0);
  auto env = bench::make_env(env::table2_context(1), 42);

  core::RunOptions run_options;
  run_options.sink = sink;
  const auto start = std::chrono::steady_clock::now();
  core::run_agent(*env, agent, {}, kIterations, run_options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double ns_per_op(std::uint64_t ops, void (*body)(std::uint64_t)) {
  const auto start = std::chrono::steady_clock::now();
  body(ops);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         static_cast<double>(ops);
}

}  // namespace

int main() {
  bench::banner("obs overhead",
                "cost of metrics, decision tracing, and profiling timers");

  std::cout << "training one initial policy offline ...\n";
  core::InitialPolicyLibrary library =
      bench::build_offline_library({env::table2_context(1)});

  obs::TeeTraceSink null_sink({});  // fans out to nothing
  obs::MemoryTraceSink memory_sink;
  const std::string jsonl_path = "/tmp/rac_obs_overhead.jsonl";
  obs::JsonlTraceSink jsonl_sink(jsonl_path);

  struct Arm {
    const char* name;
    obs::TraceSink* sink;
    std::vector<double> ms;      // instrumented run of each pair
    std::vector<double> ratios;  // instrumented / adjacent baseline
  };
  // Every arm runs with the phase profiler (obs::ProfileScope) on, wired
  // through the management loop, including the scopes that also feed the
  // latency histograms -- the <5% check covers the whole instrumentation
  // set.
  Arm arms[] = {
      {"null sink, profiling on", &null_sink, {}, {}},
      {"memory sink, profiling on", &memory_sink, {}, {}},
      {"JSONL sink, profiling on", &jsonl_sink, {}, {}},
  };
  std::vector<double> baseline_ms;
  const auto baseline_run = [&] {
    obs::set_profiling(false);
    const double ms = run_once(library, nullptr);
    baseline_ms.push_back(ms);
    return ms;
  };
  const auto instrumented_run = [&](Arm& arm) {
    obs::set_profiling(true);
    const double ms = run_once(library, arm.sink);
    if (arm.sink == &memory_sink) memory_sink.clear();
    arm.ms.push_back(ms);
    return ms;
  };

  // Warm-up run (allocators, caches), then the pairs, arms interleaved so
  // slow drift hits every arm alike.
  run_once(library, nullptr);
  for (int pair = 0; pair < kPairs; ++pair) {
    int order = pair;
    for (Arm& arm : arms) {
      double instrumented = 0.0;
      double baseline = 0.0;
      if (order++ % 2 == 0) {
        instrumented = instrumented_run(arm);
        baseline = baseline_run();
      } else {
        baseline = baseline_run();
        instrumented = instrumented_run(arm);
      }
      arm.ratios.push_back(instrumented / baseline);
    }
  }
  obs::set_profiling(true);

  util::TextTable table({"configuration", "median (ms)", "min (ms)",
                         "median paired overhead"});
  table.add_row({"no sink, profiling off (baseline)",
                 util::fmt(median(baseline_ms), 2),
                 util::fmt(*std::min_element(baseline_ms.begin(),
                                             baseline_ms.end()),
                           2),
                 "-"});
  double worst_overhead = 0.0;
  for (const Arm& arm : arms) {
    const double overhead = median(arm.ratios) - 1.0;
    worst_overhead = std::max(worst_overhead, overhead);
    table.add_row({arm.name, util::fmt(median(arm.ms), 2),
                   util::fmt(*std::min_element(arm.ms.begin(), arm.ms.end()),
                             2),
                   util::fmt(overhead * 100.0, 2) + "%"});
  }
  std::cout << "\n" << kIterations << "-interval management loop (" << kPairs
            << " pairs per arm, each with an adjacent baseline run):\n"
            << table.str();

  // Primitive costs: what one metric update / disabled instrument costs.
  static obs::Counter& counter =
      obs::default_registry().counter("bench.obs_overhead.counter");
  static obs::Histogram& histogram = obs::default_registry().histogram(
      "bench.obs_overhead.histogram", obs::latency_us_bounds());
  const double counter_ns = ns_per_op(10'000'000, [](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) counter.add(1);
  });
  const double histogram_ns = ns_per_op(10'000'000, [](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      histogram.observe(static_cast<double>(i & 1023));
    }
  });
  obs::set_profiling(false);
  const double scope_off_ns = ns_per_op(10'000'000, [](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      obs::ProfileScope s("bench.obs_overhead.off");
    }
  });
  obs::set_profiling(true);
  // The enabled ProfileScope is the cost ceiling for one phase boundary
  // (two clock reads + a child lookup); the instrumented code pays it per
  // management-loop phase, never per simulated event.
  const double scope_on_ns = ns_per_op(1'000'000, [](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      obs::ProfileScope s("bench.obs_overhead.on");
    }
  });
  // A timed site's instrument: the same frame plus one histogram
  // observation from the scope's own clock pair.
  const double scope_histogram_ns = ns_per_op(1'000'000, [](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      obs::ProfileScope s("bench.obs_overhead.on_histogram", histogram);
    }
  });

  util::TextTable prims({"primitive", "ns/op"});
  prims.add_row({"Counter::add", util::fmt(counter_ns, 1)});
  prims.add_row({"Histogram::observe", util::fmt(histogram_ns, 1)});
  prims.add_row({"ProfileScope (profiling off)", util::fmt(scope_off_ns, 1)});
  prims.add_row({"ProfileScope (profiling on)", util::fmt(scope_on_ns, 1)});
  prims.add_row({"ProfileScope + histogram (profiling on)",
                 util::fmt(scope_histogram_ns, 1)});
  std::cout << "\n" << prims.str();

  const bool pass = worst_overhead < 0.05;
  std::cout << "\nCHECK: worst instrumentation overhead "
            << util::fmt(worst_overhead * 100.0, 2) << "% vs <5% budget -- "
            << (pass ? "PASS" : "FAIL") << "\n";
  std::remove(jsonl_path.c_str());

  bench::paper_note(
      "(beyond the paper) telemetry must not perturb the control loop it "
      "observes: <5% overhead with every sink enabled, ~0 when disabled",
      pass ? "within budget; disabled primitives cost nanoseconds"
           : "OVER BUDGET -- see table");
  return pass ? 0 : 1;
}
