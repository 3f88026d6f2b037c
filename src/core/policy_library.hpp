// Library of offline-trained initial policies, one per anticipated system
// context (paper Section 4.3).
//
// When the violation detector declares a context change, the agent switches
// to "a most suitable initial policy according to the current performance":
// the library scores each policy by how well its regression surface
// explains the live measurement at the current configuration and returns
// the best match. The agent is NOT told the new context -- matching is
// purely observational.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/policy_init.hpp"

namespace rac::core {

/// Copies share one immutable policy vector (copy-on-write): a fleet hands
/// the same library to thousands of agents for the cost of a shared_ptr
/// each, and the storage is cloned only when someone add()s to a shared
/// copy. Reads on shared storage are thread-safe; add() on any one copy is
/// not and must be externally serialized with concurrent readers of that
/// same object (readers of *other* copies are unaffected -- they keep the
/// old storage).
class InitialPolicyLibrary {
 public:
  InitialPolicyLibrary() = default;

  /// Appends `policy`, flattening an overlay Q-table into a plain one
  /// (QTable::compacted; reads and saved bytes are unchanged).
  void add(InitialPolicy policy);

  std::size_t size() const noexcept {
    return policies_ == nullptr ? 0 : policies_->size();
  }
  bool empty() const noexcept { return size() == 0; }
  const InitialPolicy& at(std::size_t i) const;
  /// at(i).table as a pointer that shares ownership of this library's
  /// storage: an agent's overlay base. Holding it keeps that storage
  /// alive, and a later add() to this library clones instead of moving it.
  std::shared_ptr<const rl::QTable> shared_table(std::size_t i) const;

  /// True when both objects point at the same underlying storage (so one
  /// held no copy cost). An empty library shares with nothing.
  bool shares_storage_with(const InitialPolicyLibrary& other) const noexcept {
    return policies_ != nullptr && policies_ == other.policies_;
  }

  /// Index of the policy trained for exactly `context`, if any.
  std::optional<std::size_t> find_context(
      const env::SystemContext& context) const;

  /// Index of the policy whose predicted response time at `configuration`
  /// is closest (relatively) to the measured one. Returns nullopt for an
  /// empty library. Exact score ties resolve to the lowest policy index.
  std::optional<std::size_t> best_match(
      const config::Configuration& configuration,
      double measured_response_ms) const;

 private:
  std::shared_ptr<std::vector<InitialPolicy>> policies_;
};

/// Convenience: train one policy per context on freshly-constructed
/// offline environments produced by `make_env`.
///
/// Contexts are trained concurrently on `options.pool` (the process-wide
/// obs::shared_pool() when null), one task per context; `make_env` may
/// therefore be invoked from several threads at once and must not touch
/// shared mutable state. Each task builds its own environment and RNG, so
/// the library is bit-identical to a serial build regardless of thread
/// count, and policies are added in `contexts` order.
InitialPolicyLibrary build_library(
    const std::vector<env::SystemContext>& contexts,
    const std::function<std::unique_ptr<env::Environment>(
        const env::SystemContext&)>& make_env,
    const PolicyInitOptions& options = {});

}  // namespace rac::core
