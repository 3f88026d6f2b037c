#include "core/sensitivity.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rac::core {

std::vector<config::ParamId> SensitivityReport::selected(
    double threshold) const {
  std::vector<config::ParamId> out;
  for (const auto& entry : ranked) {
    if (entry.impact() >= threshold) out.push_back(entry.id);
  }
  return out;
}

SensitivityReport analyze_sensitivity(env::Environment& environment,
                                      const SensitivityOptions& options) {
  if (options.stride < 1) {
    throw std::invalid_argument("analyze_sensitivity: bad options");
  }

  SensitivityReport report;
  for (config::ParamId id : config::kAllParams) {
    ParameterSensitivity entry;
    entry.id = id;
    entry.min_response_ms = std::numeric_limits<double>::infinity();
    entry.max_response_ms = 0.0;

    const auto grid = config::ConfigSpace::fine_grid(id);
    for (std::size_t i = 0; i < grid.size();
         i += static_cast<std::size_t>(options.stride)) {
      config::Configuration c = config::Configuration::defaults();
      c.set(id, grid[i]);
      const double response =
          environment.measure(c)  // rac-analyze: allow(unchecked-measure) offline probe
              .response_ms;
      ++report.evaluations;
      if (response < entry.min_response_ms) {
        entry.min_response_ms = response;
        entry.best_value = grid[i];
      }
      entry.max_response_ms = std::max(entry.max_response_ms, response);
    }
    report.ranked.push_back(entry);
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const ParameterSensitivity& a, const ParameterSensitivity& b) {
              return a.impact() > b.impact();
            });
  return report;
}

}  // namespace rac::core
