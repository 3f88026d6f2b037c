#include "core/search.hpp"

#include <limits>

namespace rac::core {

namespace {
// Fine-grid greedy refinement budget.
constexpr int kMaxLocalSteps = 200;

double evaluate(env::Environment& environment,
                const config::Configuration& configuration,
                int& evaluations) {
  ++evaluations;
  return environment.measure(configuration)  // rac-analyze: allow(unchecked-measure) offline probe
      .response_ms;
}
}  // namespace

SearchResult find_best_configuration(env::Environment& environment,
                                     const SearchOptions& options) {
  SearchResult result;
  result.best_response_ms = std::numeric_limits<double>::infinity();

  const config::ConfigSpace space(options.coarse_levels);
  for (const auto& candidate : space.coarse_grid()) {
    const double response =
        evaluate(environment, candidate, result.evaluations);
    if (response < result.best_response_ms) {
      result.best_response_ms = response;
      result.best = candidate;
    }
  }

  // Greedy fine-grid descent from the best coarse point.
  for (int step = 0; step < kMaxLocalSteps; ++step) {
    config::Configuration improved = result.best;
    double improved_response = result.best_response_ms;
    for (const auto& neighbor : config::ConfigSpace::neighbors(result.best)) {
      if (neighbor == result.best) continue;
      const double response =
          evaluate(environment, neighbor, result.evaluations);
      if (response < improved_response) {
        improved_response = response;
        improved = neighbor;
      }
    }
    if (improved == result.best) break;  // local optimum
    result.best = improved;
    result.best_response_ms = improved_response;
  }
  return result;
}

}  // namespace rac::core
