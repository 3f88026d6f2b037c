#include "core/search.hpp"

#include <limits>
#include <stdexcept>

namespace rac::core {

namespace {
double evaluate(env::Environment& environment,
                const config::Configuration& configuration, int samples,
                int& evaluations) {
  double total = 0.0;
  for (int i = 0; i < samples; ++i) {
    total += environment.measure(configuration)  // rac-analyze: allow(unchecked-measure) offline probe
                 .response_ms;
  }
  ++evaluations;
  return total / samples;
}
}  // namespace

SearchResult find_best_configuration(env::Environment& environment,
                                     const SearchOptions& options) {
  if (options.samples_per_eval < 1) {
    throw std::invalid_argument("find_best_configuration: bad sample count");
  }

  SearchResult result;
  result.best_response_ms = std::numeric_limits<double>::infinity();

  const config::ConfigSpace space(options.coarse_levels);
  for (const auto& candidate : space.coarse_grid()) {
    const double response = evaluate(environment, candidate,
                                     options.samples_per_eval,
                                     result.evaluations);
    if (response < result.best_response_ms) {
      result.best_response_ms = response;
      result.best = candidate;
    }
  }

  // Greedy fine-grid descent from the best coarse point.
  for (int step = 0; step < options.max_local_steps; ++step) {
    config::Configuration improved = result.best;
    double improved_response = result.best_response_ms;
    for (const auto& neighbor : config::ConfigSpace::neighbors(result.best)) {
      if (neighbor == result.best) continue;
      const double response = evaluate(environment, neighbor,
                                       options.samples_per_eval,
                                       result.evaluations);
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
