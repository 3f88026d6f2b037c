#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>

#include "obs/bench_report.hpp"
#include "obs/pool.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace rac::bench {

namespace {

// State of the per-process report session started by banner(). The digest
// sink lives here (not in the session) because trace_sink() may be touched
// before banner() runs.
struct ReportSession {
  bool active = false;
  std::string dir;
  std::string bench;
  std::uint64_t seed = 0;
  std::chrono::steady_clock::time_point start{};
};

ReportSession& report_session() {
  static ReportSession session;
  return session;
}

obs::DigestTraceSink& digest_sink() {
  static obs::DigestTraceSink sink;
  return sink;
}

bool report_env_set() {
  const char* dir = std::getenv("RAC_BENCH_REPORT");
  return dir != nullptr && *dir != '\0';
}

// The bench name keys the report file and run ID; argv[0] is not
// available here, so resolve the executable basename from the OS.
std::string executable_name() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec && !exe.empty()) return exe.filename().string();
  return "bench_unknown";
}

void write_report_at_exit() {
  ReportSession& session = report_session();
  if (!session.active) return;
  obs::BenchReport report;
  report.bench = session.bench;
  report.seed = session.seed;
  report.threads = obs::shared_pool().size();
  report.quick = quick();
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - session.start)
                       .count();
  report.trace_digest = digest_sink().digest();
  report.phases = obs::Profiler::default_profiler().snapshot();
  report.metrics = obs::default_registry().snapshot();
  obs::fill_host_metadata(report);
  try {
    obs::write_bench_report(session.dir, report);
    std::cout << "bench report -> " << session.dir << "/" << report.bench
              << ".json (" << obs::run_id(report) << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "bench report: write failed: " << e.what() << "\n";
  }
}

}  // namespace

bool quick() {
  static const bool value = [] {
    const char* v = std::getenv("RAC_BENCH_QUICK");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
  }();
  return value;
}

int scaled(int full, int quick_value) { return quick() ? quick_value : full; }

void set_report_seed(std::uint64_t seed) { report_session().seed = seed; }

env::AnalyticEnvOptions default_env_options(std::uint64_t seed,
                                            double noise_sigma) {
  env::AnalyticEnvOptions opt;
  opt.seed = seed;
  opt.noise_sigma = noise_sigma;
  return opt;
}

std::unique_ptr<env::AnalyticEnv> make_env(const env::SystemContext& context,
                                           std::uint64_t seed,
                                           double noise_sigma) {
  return std::make_unique<env::AnalyticEnv>(
      context, default_env_options(seed, noise_sigma));
}

core::InitialPolicyLibrary build_offline_library(
    const std::vector<env::SystemContext>& contexts, std::uint64_t seed) {
  core::PolicyInitOptions init;
  init.offline_td.max_sweeps = scaled(150, 40);
  return core::build_library(
      contexts,
      [&](const env::SystemContext& ctx) { return make_env(ctx, seed); },
      init);
}

core::ContextSchedule paper_schedule() {
  return {
      {0, env::table2_context(1)},
      {30, env::table2_context(2)},
      {60, env::table2_context(3)},
  };
}

void report_traces(const std::string& title, const std::string& x_label,
                   const std::vector<core::AgentTrace>& traces) {
  if (traces.empty()) return;

  std::vector<std::string> headers = {x_label, "context"};
  for (const auto& trace : traces) headers.push_back(trace.agent + " (ms)");
  util::TextTable table(headers);
  const std::size_t n = traces.front().records.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> row;
    row.push_back(std::to_string(traces.front().records[i].iteration));
    row.push_back(traces.front().records[i].context.name());
    for (const auto& trace : traces) {
      row.push_back(util::fmt(trace.records[i].response_ms, 1));
    }
    table.add_row(std::move(row));
  }

  std::cout << "\n" << title << "\n" << table.str() << "\n";
  std::cout << "CSV:\n" << table.csv() << "\n";

  util::AsciiChart chart(78, 20);
  chart.set_title(title);
  chart.set_x_label(x_label);
  chart.set_y_label("mean response time (ms)");
  const std::string symbols = "*o+x#@";
  for (std::size_t t = 0; t < traces.size(); ++t) {
    util::Series series;
    series.name = traces[t].agent;
    series.symbol = symbols[t % symbols.size()];
    for (const auto& record : traces[t].records) {
      series.xs.push_back(static_cast<double>(record.iteration));
      series.ys.push_back(record.response_ms);
    }
    chart.add_series(std::move(series));
  }
  std::cout << chart.str() << "\n";
}

void banner(const std::string& artifact, const std::string& description) {
  ReportSession& session = report_session();
  if (session.start == std::chrono::steady_clock::time_point{}) {
    session.start = std::chrono::steady_clock::now();
    session.bench = executable_name();
    if (report_env_set()) {
      session.dir = std::getenv("RAC_BENCH_REPORT");
      session.active = true;
      // Construct every static the atexit writer touches BEFORE registering
      // it: atexit handlers and static destructors share one LIFO, so
      // anything first constructed after this registration is destroyed
      // before the writer runs. That covers the sinks, the default metrics
      // registry (a destructible function-local static), and the shared
      // pool -- which must not be first-constructed during exit either,
      // since that would spawn worker threads mid-teardown.
      digest_sink();
      trace_sink();
      obs::default_registry();
      obs::Profiler::default_profiler();
      obs::shared_pool();
      std::atexit(write_report_at_exit);
      std::cout << "bench report session: " << session.dir << "/"
                << session.bench << ".json at exit\n";
    }
  }
  std::cout << "==================================================================\n"
            << artifact << " -- " << description << "\n"
            << "==================================================================\n";
}

void paper_note(const std::string& expectation, const std::string& measured) {
  std::cout << "\nPAPER:    " << expectation << "\nMEASURED: " << measured
            << "\n\n";
}

obs::TraceSink& trace_sink() {
  // Composition with the report digest: RAC_TRACE and RAC_BENCH_REPORT are
  // independent. RAC_TRACE -> the JSONL sink; RAC_BENCH_REPORT -> the
  // digest sink; both -> the tee feeds both, so the report's digest covers
  // exactly the events the trace file received; neither -> the tee is
  // empty and drops every event.
  static const std::unique_ptr<obs::TraceSink> from_env = [] {
    std::unique_ptr<obs::TraceSink> sink;
    try {
      sink = obs::sink_from_env();
    } catch (const std::exception& e) {
      std::cerr << "RAC_TRACE disabled: " << e.what() << "\n";
    }
    if (sink != nullptr) {
      std::cout << "decision trace -> "
                << static_cast<obs::JsonlTraceSink*>(sink.get())->path()
                << " (JSONL, one record per iteration per agent)\n";
    }
    return sink;
  }();
  static obs::TeeTraceSink tee = [] {
    std::vector<obs::TraceSink*> sinks;
    if (report_env_set()) sinks.push_back(&digest_sink());
    if (from_env != nullptr) sinks.push_back(from_env.get());
    return obs::TeeTraceSink(std::move(sinks));
  }();
  return tee;
}

core::AgentTrace run_traced(env::Environment& environment,
                            core::ConfigAgent& agent,
                            const core::ContextSchedule& schedule,
                            int iterations) {
  core::RunOptions options;
  options.sink = &trace_sink();
  return core::run_agent(environment, agent, schedule, iterations, options);
}

std::vector<core::AgentTrace> run_parallel(
    const std::vector<std::function<core::AgentTrace()>>& runs) {
  // Touch the sink before fanning out so its one-time construction (which
  // prints a banner) happens on the calling thread, not mid-run.
  trace_sink();
  return obs::shared_pool().parallel_map(runs.size(),
                                         [&](std::size_t i) { return runs[i](); });
}

void report_metrics(const std::vector<std::string>& prefixes) {
  obs::MetricsSnapshot snap = obs::default_registry().snapshot();
  if (!prefixes.empty()) {
    const auto matches = [&](const std::string& name) {
      return std::any_of(prefixes.begin(), prefixes.end(),
                         [&](const std::string& p) {
                           return name.compare(0, p.size(), p) == 0;
                         });
    };
    std::erase_if(snap.counters,
                  [&](const auto& c) { return !matches(c.name); });
    std::erase_if(snap.gauges, [&](const auto& g) { return !matches(g.name); });
    std::erase_if(snap.histograms,
                  [&](const auto& h) { return !matches(h.name); });
  }
  std::cout << "\ntelemetry (obs::default_registry):\n" << snap.to_text();
}

}  // namespace rac::bench
