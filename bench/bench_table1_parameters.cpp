// Table 1 -- the tunable performance-critical parameters: name, tier,
// range, default, plus this implementation's fine-grid step and parameter
// group. Verified against the live configuration space.
#include <iostream>

#include "config/space.hpp"
#include "harness.hpp"

int main() {
  using namespace rac;
  bench::banner("Table 1", "tunable performance-critical parameters");

  util::TextTable table({"Parameter", "Tier", "Range", "Default", "Fine step",
                         "Grid size", "Group"});
  for (const auto& spec : config::catalog()) {
    const auto grid = config::ConfigSpace::fine_grid(spec.id);
    table.add_row({std::string(spec.name), std::string(config::tier_name(spec.tier)),
                   std::string("[")
                       .append(std::to_string(spec.min))
                       .append(", ")
                       .append(std::to_string(spec.max))
                       .append("]"),
                   std::to_string(spec.default_value),
                   std::to_string(spec.fine_step),
                   std::to_string(grid.size()),
                   std::string(config::group_name(spec.group))});
  }
  std::cout << table.str() << "\nCSV:\n" << table.csv();

  // Derived state-space sizes the paper discusses (Section 4).
  double fine_states = 1.0;
  for (config::ParamId id : config::kAllParams) {
    fine_states *= static_cast<double>(config::ConfigSpace::fine_grid(id).size());
  }
  const config::ConfigSpace space(4);
  std::cout << "\nfine-grid joint state space : " << fine_states << " states\n"
            << "grouped coarse sample set   : " << space.coarse_grid().size()
            << " configurations (4 levels ^ 4 groups)\n"
            << "actions per state           : " << config::kNumActions
            << " (keep + inc/dec per parameter)\n";

  bench::paper_note(
      "eight runtime-tunable parameters across the web and application "
      "tiers; web: MaxClients [50,600]=150, KeepAlive [1,21]=15, "
      "MinSpare [5,85]=5, MaxSpare [15,95]=15; app: MaxThreads "
      "[50,600]=200, Session timeout [1,35]=30, minSpare [5,85]=5, "
      "maxSpare [15,95]=50",
      "catalog above matches; exponential joint space motivates the "
      "grouped coarse sampling of Algorithm 2");
  return 0;
}
