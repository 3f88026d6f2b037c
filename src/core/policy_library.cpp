#include "core/policy_library.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/pool.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace rac::core {

void InitialPolicyLibrary::add(InitialPolicy policy) {
  // A library table is read-only from here on and shared by every agent
  // that overlays it: keep only its written rows, and flatten an overlay
  // (the fleet's retrained tables). Warm rows hold the default, so no read
  // changes; a plain table without them (a loaded one) is kept as it is.
  if (policy.table.base() != nullptr ||
      policy.table.num_rows() != policy.table.size()) {
    policy.table = policy.table.compacted();
  }
  if (policies_ == nullptr) {
    policies_ = std::make_shared<std::vector<InitialPolicy>>();
  } else if (policies_.use_count() > 1) {
    // Someone else shares this storage: clone before mutating so their
    // view stays frozen (and stays safe to read concurrently).
    policies_ = std::make_shared<std::vector<InitialPolicy>>(*policies_);
  }
  policies_->push_back(std::move(policy));
}

const InitialPolicy& InitialPolicyLibrary::at(std::size_t i) const {
  if (policies_ == nullptr) {
    throw std::out_of_range("InitialPolicyLibrary::at: empty library");
  }
  return policies_->at(i);
}

std::shared_ptr<const rl::QTable> InitialPolicyLibrary::shared_table(
    std::size_t i) const {
  return {policies_, &at(i).table};
}

std::optional<std::size_t> InitialPolicyLibrary::find_context(
    const env::SystemContext& context) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if ((*policies_)[i].context == context) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> InitialPolicyLibrary::best_match(
    const config::Configuration& configuration,
    double measured_response_ms) const {
  if (empty()) return std::nullopt;
  // Guard log() against zero/negative inputs only. An earlier version
  // clamped to 1.0 ms, which collapsed every sub-millisecond surface to
  // the same score and silently resolved those "ties" to policy 0; the
  // tiny floor keeps sub-ms predictions distinguishable.
  constexpr double kFloorMs = 1e-9;
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size(); ++i) {
    const double predicted =
        (*policies_)[i].predict_response_ms(configuration);
    // Relative mismatch in log space: symmetric between over- and
    // under-prediction.
    const double score =
        std::abs(std::log(std::max(predicted, kFloorMs)) -
                 std::log(std::max(measured_response_ms, kFloorMs)));
    // Strict '<' makes exact ties resolve to the lowest policy index --
    // deterministic, and stable across library reorderings of non-tied
    // entries.
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

InitialPolicyLibrary build_library(
    const std::vector<env::SystemContext>& contexts,
    const std::function<std::unique_ptr<env::Environment>(
        const env::SystemContext&)>& make_env,
    const PolicyInitOptions& options) {
  // One task per context, each with a freshly-constructed environment, so
  // tasks share nothing; results land in per-index slots and are merged in
  // input order, making the parallel build bit-identical to a serial one.
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : obs::shared_pool();
  std::vector<InitialPolicy> policies(contexts.size());
  const obs::ProfileScope profile("core.build_library");
  // Workers re-anchor at the submitting thread's open phases (including
  // the scope above) so the profile tree is thread-count invariant.
  const std::vector<std::string> profile_path =
      obs::Profiler::default_profiler().capture_path();
  pool.parallel_for(contexts.size(), [&](std::size_t i) {
    const obs::ProfileAnchor anchor(profile_path);
    auto environment = make_env(contexts[i]);
    policies[i] = learn_initial_policy(*environment, options);
  });
  InitialPolicyLibrary library;
  for (auto& policy : policies) {
    library.add(std::move(policy));
  }
  return library;
}

}  // namespace rac::core
