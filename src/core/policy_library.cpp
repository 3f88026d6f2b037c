#include "core/policy_library.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/pool.hpp"
#include "obs/profiler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rac::core {

namespace {

// Folds one word into a running hash (SplitMix64's mixer, as derive_seed).
std::uint64_t fold(std::uint64_t hash, std::uint64_t word) {
  std::uint64_t state = hash ^ word;
  return util::splitmix64(state);
}

std::uint64_t fold(std::uint64_t hash, double value) {
  return fold(hash, std::bit_cast<std::uint64_t>(value));
}

// The fingerprint of a policy an agent may overlay: its context, its
// surface's parts and its table's default and rows, every double by its
// bits. A row hashes its key and values; rows combine by modular sum, so
// the same rows hash equal in any order (a loaded table holds them sorted,
// a trained one in first-touch order).
std::uint64_t fingerprint_of(const InitialPolicy& policy) {
  std::uint64_t hash = fold(0, static_cast<std::uint64_t>(policy.context.mix));
  hash = fold(hash, static_cast<std::uint64_t>(policy.context.level));
  const util::QuadraticSurface& surface = policy.surface.regression();
  hash = fold(hash, std::uint64_t{surface.fitted()});
  if (surface.fitted()) {
    hash = fold(hash, std::uint64_t{surface.dim()});
    hash = fold(hash, static_cast<std::uint64_t>(surface.per_dim_degree()));
    for (const auto& part :
         {surface.model().weights(), surface.means(), surface.scales()}) {
      hash = fold(hash, std::uint64_t{part.size()});
      for (const double v : part) hash = fold(hash, v);
    }
  }
  hash = fold(hash, policy.table.default_q());
  hash = fold(hash, std::uint64_t{policy.table.size()});
  std::uint64_t rows = 0;
  policy.table.for_each_row([&rows](const config::Configuration& state,
                                    const rl::QTable::ActionValues& values) {
    std::uint64_t row = 0;
    for (const int v : state.values()) {
      row = fold(row, static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    }
    for (const double q : values) row = fold(row, q);
    rows += row;
  });
  return fold(hash, rows);
}

}  // namespace

void InitialPolicyLibrary::add(InitialPolicy policy) {
  // A library table is read-only from here on and shared by every agent
  // that overlays it, and a base is never itself an overlay: flatten one
  // (the fleet's retrained tables). No read and no saved byte changes.
  if (policy.table.base() != nullptr) policy.table = policy.table.compacted();
  if (entries_ == nullptr) {
    entries_ = std::make_shared<std::vector<Entry>>();
  } else if (entries_.use_count() > 1) {
    // Someone else shares this storage: clone before mutating so their
    // view stays frozen (and stays safe to read concurrently).
    entries_ = std::make_shared<std::vector<Entry>>(*entries_);
  }
  const std::uint64_t fingerprint = fingerprint_of(policy);
  entries_->push_back({std::move(policy), fingerprint});
}

const InitialPolicyLibrary::Entry& InitialPolicyLibrary::entry(
    std::size_t i) const {
  if (entries_ == nullptr) {
    throw std::out_of_range("InitialPolicyLibrary::at: empty library");
  }
  return entries_->at(i);
}

const InitialPolicy& InitialPolicyLibrary::at(std::size_t i) const {
  return entry(i).policy;
}

std::uint64_t InitialPolicyLibrary::fingerprint(std::size_t i) const {
  return entry(i).fingerprint;
}

std::shared_ptr<const rl::QTable> InitialPolicyLibrary::shared_table(
    std::size_t i) const {
  return {entries_, &at(i).table};
}

std::optional<std::size_t> InitialPolicyLibrary::find_context(
    const env::SystemContext& context) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if ((*entries_)[i].policy.context == context) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> InitialPolicyLibrary::find_fingerprint(
    std::uint64_t fingerprint) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if ((*entries_)[i].fingerprint == fingerprint) return i;
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
        (*entries_)[i].policy.predict_response_ms(configuration);
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
