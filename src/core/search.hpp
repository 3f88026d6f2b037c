// Offline configuration search, used to find the "best configuration (out
// of our test cases)" baselines of the paper's Figures 1 and 3: a coarse
// grid scan followed by greedy hill descent on the fine grid.
#pragma once

#include "config/space.hpp"
#include "env/environment.hpp"

namespace rac::core {

struct SearchOptions {
  int coarse_levels = 4;  // coarse-grid resolution of the initial scan
};

struct SearchResult {
  config::Configuration best;
  double best_response_ms = 0.0;
  int evaluations = 0;
};

/// Exhaustive coarse scan + greedy neighbour descent of at most 200 steps,
/// one measurement per evaluated configuration.
SearchResult find_best_configuration(env::Environment& environment,
                                     const SearchOptions& options = {});

}  // namespace rac::core
