// Automatic parameter selection by sensitivity analysis.
//
// The paper selects its eight parameters by hand and names automating the
// choice as future work ("configurable parameters need to be selected
// automatically in a more efficient way", Section 7). This module
// implements the obvious first tool: sweep each parameter's grid with the
// others held at the Table-1 defaults, measure the response-time range it
// commands (one measurement per grid point), and rank. Parameters whose whole sweep moves the response
// time less than a threshold are not worth the online search space they
// would cost (Section 3.1's tradeoff).
#pragma once

#include <vector>

#include "config/space.hpp"
#include "env/environment.hpp"

namespace rac::core {

struct ParameterSensitivity {
  config::ParamId id{};
  double min_response_ms = 0.0;  // best value found in the sweep
  double max_response_ms = 0.0;  // worst value found in the sweep
  int best_value = 0;            // argmin of the sweep
  /// Impact score: (max - min) / min over the parameter's sweep.
  double impact() const noexcept {
    return min_response_ms > 0.0
               ? (max_response_ms - min_response_ms) / min_response_ms
               : 0.0;
  }
};

struct SensitivityOptions {
  /// Sweep every `stride`-th fine-grid value (1 = full grid).
  int stride = 1;
};

struct SensitivityReport {
  /// One entry per parameter, ranked by descending impact.
  std::vector<ParameterSensitivity> ranked;
  int evaluations = 0;

  /// Parameters whose impact exceeds `threshold` (e.g. 0.1 = the sweep
  /// moves the response time by at least 10%).
  std::vector<config::ParamId> selected(double threshold) const;
};

/// Sweep all kNumParams parameters one-at-a-time against `environment`.
SensitivityReport analyze_sensitivity(env::Environment& environment,
                                      const SensitivityOptions& options = {});

}  // namespace rac::core
