#include "rl/experience.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace rac::rl {

namespace {
bool values_less(const config::Configuration& a,
                 const config::Configuration& b) {
  return a.values() < b.values();
}
}  // namespace

ExperienceStore::ExperienceStore(double blend) : blend_(blend) {
  if (blend <= 0.0 || blend > 1.0) {
    throw std::invalid_argument("ExperienceStore: blend outside (0, 1]");
  }
}

void ExperienceStore::insert_sorted(
    const config::Configuration& configuration) {
  const auto at =
      std::lower_bound(sorted_.begin(), sorted_.end(), configuration,
                       values_less);
  sorted_.insert(at, configuration);
}

void ExperienceStore::record(const config::Configuration& configuration,
                             double response_ms) {
  RAC_EXPECT(std::isfinite(response_ms) && response_ms >= 0.0,
             "ExperienceStore::record: non-finite or negative response time");
  const auto [i, inserted] = index_.insert(configuration);
  if (inserted) {
    entries_.push_back({configuration, Observation{response_ms, 1}});
    insert_sorted(configuration);
  } else {
    Observation& obs = entries_[i].observation;
    obs.response_ms += blend_ * (response_ms - obs.response_ms);
    ++obs.count;
  }
  if constexpr (util::kAuditEnabled) {
    // Replay validity: every stored entry must stay a finite blend of real
    // measurements with a live observation count, the index must agree
    // with the ordered list, and the canonical list must stay a sorted
    // permutation of it.
    RAC_AUDIT(sorted_.size() == entries_.size(),
              "ExperienceStore: sorted list out of sync with entry list");
    RAC_AUDIT(std::is_sorted(sorted_.begin(), sorted_.end(), values_less),
              "ExperienceStore: canonical list lost its order");
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      const auto& entry = entries_[e];
      RAC_AUDIT(entry.observation.count >= 1,
                "ExperienceStore: entry with zero observation count");
      RAC_AUDIT(std::isfinite(entry.observation.response_ms) &&
                    entry.observation.response_ms >= 0.0,
                "ExperienceStore: stored response time went non-finite");
      RAC_AUDIT(index_.find(entry.configuration) == e,
                "ExperienceStore: index points at the wrong entry");
    }
  }
}

std::optional<double> ExperienceStore::response_ms(
    const config::Configuration& configuration) const {
  const std::size_t i = index_.find(configuration);
  if (i == ConfigIndex::npos) return std::nullopt;
  return entries_[i].observation.response_ms;
}

std::optional<config::Configuration> ExperienceStore::best() const {
  if (entries_.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    // Strict < keeps the earliest observation on ties, so the answer is a
    // deterministic function of the recording history.
    if (entries_[i].observation.response_ms <
        entries_[best].observation.response_ms) {
      best = i;
    }
  }
  return entries_[best].configuration;
}

void ExperienceStore::clear() {
  entries_.clear();
  index_.clear();
  sorted_.clear();
}

void ExperienceStore::restore(std::vector<ExperienceEntry> entries) {
  ConfigIndex index;
  for (const auto& entry : entries) {
    if (entry.observation.count == 0 ||
        entry.observation.count == std::numeric_limits<std::uint64_t>::max()) {
      throw std::invalid_argument(
          "ExperienceStore::restore: observation count outside "
          "[1, UINT64_MAX)");
    }
    if (!std::isfinite(entry.observation.response_ms) ||
        entry.observation.response_ms < 0.0) {
      throw std::invalid_argument(
          "ExperienceStore::restore: non-finite or negative response time");
    }
    if (!index.insert(entry.configuration).second) {
      throw std::invalid_argument(
          "ExperienceStore::restore: duplicate configuration");
    }
  }
  std::vector<config::Configuration> sorted(index.keys().begin(),
                                            index.keys().end());
  std::sort(sorted.begin(), sorted.end(), values_less);
  entries_ = std::move(entries);
  index_ = std::move(index);
  sorted_ = std::move(sorted);
}

}  // namespace rac::rl
