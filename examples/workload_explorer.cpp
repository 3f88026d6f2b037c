// Workload explorer: inspect the TPC-W workload model and watch it run on
// the discrete-event three-tier simulator (the ground-truth substrate).
//
// Prints each mix's interaction frequencies and derived per-tier demands,
// then simulates every (mix, VM level) pair at the default configuration
// and reports simulator-level detail the analytic model cannot give you:
// connection-reuse rate, session rebuilds, worker forks, pool sizes.
#include <iostream>

#include "env/context.hpp"
#include "tiersim/web_system.hpp"
#include "util/table.hpp"
#include "workload/dynamic.hpp"
#include "workload/tpcw.hpp"

int main() {
  using namespace rac;

  // --- the three TPC-W mixes ------------------------------------------------
  util::TextTable freq_table({"interaction", "browsing", "shopping",
                              "ordering", "web ms", "app ms", "db ms",
                              "write", "session"});
  for (const auto& spec : workload::interactions()) {
    const auto idx = static_cast<std::size_t>(spec.id);
    freq_table.add_row(
        {std::string(spec.name),
         util::fmt(workload::mix_frequencies(workload::MixType::kBrowsing)[idx] * 100, 2) + "%",
         util::fmt(workload::mix_frequencies(workload::MixType::kShopping)[idx] * 100, 2) + "%",
         util::fmt(workload::mix_frequencies(workload::MixType::kOrdering)[idx] * 100, 2) + "%",
         util::fmt(spec.web_demand_ms, 1), util::fmt(spec.app_demand_ms, 1),
         util::fmt(spec.db_demand_ms, 1), spec.is_write ? "yes" : "-",
         spec.uses_session ? "yes" : "-"});
  }
  std::cout << "TPC-W interactions and mix frequencies\n"
            << freq_table.str() << "\n";

  util::TextTable mix_table({"mix", "order frac", "write frac", "session frac",
                             "web ms/req", "app ms/req", "db ms/req",
                             "think (s)", "session len"});
  for (workload::MixType mix : workload::kAllMixes) {
    const auto stats = workload::mix_stats(mix);
    mix_table.add_row({std::string(workload::mix_name(mix)),
                       util::fmt(stats.order_fraction, 3),
                       util::fmt(stats.write_fraction, 3),
                       util::fmt(stats.session_fraction, 3),
                       util::fmt(stats.web_demand_ms, 1),
                       util::fmt(stats.app_demand_ms, 1),
                       util::fmt(stats.db_demand_ms, 1),
                       util::fmt(workload::browser_profile(mix).effective_think_mean_s(), 1),
                       util::fmt(stats.session_length_mean, 0)});
  }
  std::cout << "derived per-mix statistics (raw table units, pre-scaling)\n"
            << mix_table.str() << "\n";

  // --- run each (mix, level) on the discrete-event simulator -----------------
  std::cout << "simulating 5 minutes of each (mix, VM level) at the default "
               "configuration (250 browsers) ...\n\n";
  util::TextTable sim_table({"mix", "VM level", "resp (ms)", "p95 (ms)",
                             "X (req/s)", "conn reuse", "sess rebuilds",
                             "forks", "web workers", "app threads",
                             "db buffer MB"});
  const tiersim::SystemParams params;
  for (workload::MixType mix : workload::kAllMixes) {
    for (env::VmLevel level : env::kAllLevels) {
      tiersim::SimSetup setup;
      setup.traffic = workload::one_hot_target(mix);
      setup.web_vm = env::web_vm_spec();
      setup.app_vm = env::vm_spec(level);
      setup.num_clients = 250;
      setup.seed = 11;
      tiersim::ThreeTierSystem system(params, setup);
      const auto m = system.run(60.0, 300.0);
      sim_table.add_row({std::string(workload::mix_name(mix)),
                         env::level_name(level),
                         util::fmt(m.mean_response_ms, 1),
                         util::fmt(m.p95_response_ms, 1),
                         util::fmt(m.throughput_rps, 1),
                         util::fmt(m.connection_reuse_rate, 2),
                         util::fmt(m.session_rebuild_rate, 3),
                         std::to_string(m.forks),
                         util::fmt(m.mean_web_workers, 0),
                         util::fmt(m.mean_app_threads, 0),
                         util::fmt(m.mean_db_buffer_mb, 0)});
    }
  }
  std::cout << sim_table.str();
  return 0;
}
