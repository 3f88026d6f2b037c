// Adaptive hosting: a day in the life of a consolidated web host.
//
// The website's traffic mix shifts over the day (browsing overnight,
// shopping during the day, an ordering surge in the evening sale) while
// the data-center controller reallocates VM resources underneath it
// (shrinking the VM when a co-located tenant needs capacity). The RAC
// agent adapts the Apache/Tomcat configuration through every shift; a
// static default configuration is shown for contrast.
//
// This is the scenario the paper's introduction motivates: configuration
// management must react to BOTH workload dynamics and VM-level dynamics.
#include <iostream>
#include <memory>

#include "baselines/static_agent.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "env/analytic_env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ascii_chart.hpp"
#include "util/table.hpp"

int main() {
  using namespace rac;
  using workload::MixType;

  // A day = 96 intervals of 15 simulated minutes.
  const core::ContextSchedule day = {
      {0, {MixType::kBrowsing, env::VmLevel::kLevel2}},   // night, small VM
      {24, {MixType::kShopping, env::VmLevel::kLevel1}},  // morning, upsized
      {48, {MixType::kOrdering, env::VmLevel::kLevel1}},  // evening sale
      {72, {MixType::kOrdering, env::VmLevel::kLevel3}},  // co-tenant squeeze
  };
  const int intervals = 96;

  std::cout << "training one initial policy per anticipated context ...\n";
  std::vector<env::SystemContext> contexts;
  for (const auto& entry : day) contexts.push_back(entry.context);
  const auto library = core::build_library(
      contexts,
      [](const env::SystemContext& ctx) {
        env::AnalyticEnvOptions opt;
        opt.seed = 7;
        return std::make_unique<env::AnalyticEnv>(ctx, opt);
      });

  auto make_live = [&] {
    env::AnalyticEnvOptions opt;
    opt.seed = 9001;
    return std::make_unique<env::AnalyticEnv>(day.front().context, opt);
  };

  // Capture the RAC agent's decision trace so the day can be audited
  // afterwards: every interval's action, reward, and violation state.
  obs::MemoryTraceSink day_log;
  core::RunOptions run_options;
  run_options.sink = &day_log;

  core::RacOptions options;
  options.seed = 17;
  core::RacAgent rac(options, library, 0);
  auto live1 = make_live();
  const auto rac_trace = core::run_agent(*live1, rac, day, intervals, run_options);

  baselines::StaticDefaultAgent untouched;
  auto live2 = make_live();
  const auto static_trace = core::run_agent(*live2, untouched, day, intervals);

  util::TextTable table({"period", "context", "RAC mean (ms)",
                         "static mean (ms)", "RAC gain"});
  const char* period_names[] = {"night", "morning", "evening sale",
                                "squeezed VM"};
  for (std::size_t p = 0; p < day.size(); ++p) {
    const int from = day[p].start_iteration;
    const int to = p + 1 < day.size() ? day[p + 1].start_iteration : intervals;
    const double rac_mean = rac_trace.mean_response_ms(from, to);
    const double static_mean = static_trace.mean_response_ms(from, to);
    table.add_row({period_names[p], day[p].context.name(),
                   util::fmt(rac_mean, 1), util::fmt(static_mean, 1),
                   util::fmt(static_mean / rac_mean, 2) + "x"});
  }
  std::cout << "\n" << table.str();

  util::AsciiChart chart(78, 18);
  chart.set_title("A day of auto-configuration: RAC (r) vs static default (s)");
  chart.set_x_label("interval (15 simulated minutes each)");
  chart.set_y_label("response time (ms)");
  util::Series rac_series{"RAC", 'r', {}, {}};
  util::Series static_series{"static", 's', {}, {}};
  for (int i = 0; i < intervals; ++i) {
    rac_series.xs.push_back(i);
    rac_series.ys.push_back(rac_trace.records[static_cast<std::size_t>(i)].response_ms);
    static_series.xs.push_back(i);
    static_series.ys.push_back(
        static_trace.records[static_cast<std::size_t>(i)].response_ms);
  }
  chart.add_series(rac_series);
  chart.add_series(static_series);
  std::cout << "\n" << chart.str();

  std::cout << "\ncontext changes detected & policies switched: "
            << rac.policy_switches() << "\n"
            << "overall: RAC " << util::fmt(rac_trace.mean_response_ms(), 1)
            << " ms vs static "
            << util::fmt(static_trace.mean_response_ms(), 1) << " ms ("
            << util::fmt(static_trace.mean_response_ms() /
                             rac_trace.mean_response_ms(),
                         2)
            << "x)\n";

  // Audit the day from the decision trace: when did the violation detector
  // fire, and how much of the tuning was exploratory?
  int explored = 0, violations = 0;
  std::vector<int> switch_intervals;
  for (const auto& event : day_log.events()) {
    explored += event.explored ? 1 : 0;
    violations += event.violation ? 1 : 0;
    if (event.policy_switched) switch_intervals.push_back(event.iteration);
  }
  std::cout << "\nday audit (from the decision trace): " << explored
            << " exploratory actions, " << violations
            << " SLA-violating intervals, policy switches at intervals [";
  for (std::size_t i = 0; i < switch_intervals.size(); ++i) {
    std::cout << (i ? " " : "") << switch_intervals[i];
  }
  std::cout << "]\n";

  const auto snapshot = obs::default_registry().snapshot();
  const auto count = [&snapshot](const char* name) {
    const auto* counter = snapshot.counter(name);
    return counter ? counter->value : 0;
  };
  std::cout << "registry: " << count("core.violation.pvar_checks")
            << " violation checks, " << count("core.rac.retrains")
            << " online retrains, " << count("env.analytic.measurements")
            << " measurements (" << count("env.analytic.measure_hits")
            << " served by the memo), "
            << count("env.analytic.evaluations") << " model evaluations\n";
  return 0;
}
