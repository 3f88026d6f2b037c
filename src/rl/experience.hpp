// Store of measured performance per visited configuration.
//
// The online agent retrains its Q-table every interval from remembered
// measurements: the current configuration's entry is refreshed with the new
// observation while older entries are kept (paper Section 4.2). Entries
// blend repeat observations with an EWMA so stale measurements fade.
//
// Entries are kept in insertion order (first observation wins the slot) so
// that `entries()` is a deterministic function of the recording history.
// Retraining iterates that list, so a checkpoint-restored store must
// replay it in the same order to continue bit-identically -- hash-map
// iteration order would not survive a round trip. Lookups go through a
// ConfigIndex whose positions are the entry indices, and a canonically
// sorted copy of the configurations is maintained on insert so the
// per-retrain sort is amortized away.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "config/configuration.hpp"
#include "rl/config_index.hpp"

namespace rac::rl {

struct Observation {
  double response_ms = 0.0;  // blended response time
  std::size_t count = 0;     // number of measurements folded in
};

struct ExperienceEntry {
  config::Configuration configuration;
  Observation observation;
};

class ExperienceStore {
 public:
  /// `blend` is the EWMA weight of a new measurement against the stored
  /// value (1.0 = keep only the latest).
  explicit ExperienceStore(double blend = 0.6);

  void record(const config::Configuration& configuration, double response_ms);

  std::optional<double> response_ms(
      const config::Configuration& configuration) const;

  /// Best-known configuration: lowest blended response time, earliest
  /// observation winning ties. std::nullopt when the store is empty. Used
  /// by the agent's safe-fallback step (revert after repeated blowouts).
  std::optional<config::Configuration> best() const;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear();

  double blend() const noexcept { return blend_; }

  /// Visited configurations in canonical order (ascending parameter
  /// values), maintained incrementally on insert. Identical to sorting
  /// the entries' configurations with values() < values(); the retrain sweep
  /// iterates this directly. Invalidated by record/restore/clear.
  std::span<const config::Configuration> sorted_configurations() const noexcept {
    return sorted_;
  }

  /// Full entries in first-observation order (for serialization).
  std::span<const ExperienceEntry> entries() const noexcept { return entries_; }

  /// Resume from serialized entries, preserving their order. Throws
  /// std::invalid_argument on duplicate configurations, a count of zero or
  /// of UINT64_MAX (the next record would wrap it), or non-finite/negative
  /// response times.
  void restore(std::vector<ExperienceEntry> entries);

 private:
  void insert_sorted(const config::Configuration& configuration);

  double blend_;
  std::vector<ExperienceEntry> entries_;
  /// entries_[i].configuration at position i.
  ConfigIndex index_;
  std::vector<config::Configuration> sorted_;
};

}  // namespace rac::rl
