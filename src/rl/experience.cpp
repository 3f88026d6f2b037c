#include "rl/experience.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace rac::rl {

namespace {
constexpr std::size_t kInitialSlots = 64;  // power of two

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

std::size_t ExperienceStore::probe(
    const config::Configuration& configuration) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = configuration.hash() & mask;
  while (slots_[i] != 0) {
    if (entries_[slots_[i] - 1].configuration == configuration) return i;
    i = (i + 1) & mask;
  }
  return i;
}

std::size_t ExperienceStore::find_index(
    const config::Configuration& configuration) const {
  if (slots_.empty()) return npos;
  const std::size_t slot = probe(configuration);
  return slots_[slot] == 0 ? npos : slots_[slot] - 1;
}

void ExperienceStore::grow_slots() {
  // Start from double the current size, but keep doubling until the load
  // factor bound holds: after a bulk restore() the entry list can be far
  // larger than any previous table, and re-inserting into a table smaller
  // than the entry count would probe forever.
  std::size_t capacity = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  while (capacity < (entries_.size() + 1) * 2) capacity *= 2;
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t slot = entries_[i].configuration.hash() & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(i) + 1;
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
  if (slots_.size() < (entries_.size() + 1) * 2) grow_slots();
  const std::size_t slot = probe(configuration);
  if (slots_[slot] == 0) {
    slots_[slot] = static_cast<std::uint32_t>(entries_.size()) + 1;
    entries_.push_back({configuration, Observation{response_ms, 1}});
    insert_sorted(configuration);
  } else {
    Observation& obs = entries_[slots_[slot] - 1].observation;
    obs.response_ms += blend_ * (response_ms - obs.response_ms);
    ++obs.count;
  }
  if constexpr (util::kAuditEnabled) {
    // Replay validity: every stored entry must stay a finite blend of real
    // measurements with a live observation count, the probe table must
    // agree with the ordered list, and the canonical list must stay a
    // sorted permutation of it.
    RAC_AUDIT(sorted_.size() == entries_.size(),
              "ExperienceStore: sorted list out of sync with entry list");
    RAC_AUDIT(std::is_sorted(sorted_.begin(), sorted_.end(), values_less),
              "ExperienceStore: canonical list lost its order");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& entry = entries_[i];
      RAC_AUDIT(entry.observation.count >= 1,
                "ExperienceStore: entry with zero observation count");
      RAC_AUDIT(std::isfinite(entry.observation.response_ms) &&
                    entry.observation.response_ms >= 0.0,
                "ExperienceStore: stored response time went non-finite");
      RAC_AUDIT(find_index(entry.configuration) == i,
                "ExperienceStore: probe table points at wrong slot");
    }
  }
}

std::optional<double> ExperienceStore::response_ms(
    const config::Configuration& configuration) const {
  const std::size_t i = find_index(configuration);
  if (i == npos) return std::nullopt;
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
  slots_.clear();
  sorted_.clear();
}

void ExperienceStore::restore(std::vector<ExperienceEntry> entries) {
  std::vector<config::Configuration> sorted;
  sorted.reserve(entries.size());
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
    sorted.push_back(entry.configuration);
  }
  std::sort(sorted.begin(), sorted.end(), values_less);
  // Configurations are exactly their value arrays, so canonical-order
  // neighbors catch every duplicate.
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1] == sorted[i]) {
      throw std::invalid_argument(
          "ExperienceStore::restore: duplicate configuration");
    }
  }
  entries_ = std::move(entries);
  sorted_ = std::move(sorted);
  slots_.clear();
  grow_slots();
}

}  // namespace rac::rl
