#include "rl/config_index.hpp"

namespace rac::rl {

namespace {
// Initial probe-table size; must be a power of two. Doubling takes it from
// a retrain's few dozen touched states to a library table trained offline,
// which reaches ~5*10^4 rows.
constexpr std::size_t kInitialSlots = 64;
}  // namespace

std::size_t ConfigIndex::probe(const config::Configuration& c) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = c.hash() & mask;
  while (slots_[i] != 0 && keys_[slots_[i] - 1] != c) i = (i + 1) & mask;
  return i;
}

std::size_t ConfigIndex::find(const config::Configuration& c) const {
  if (slots_.empty()) return npos;
  const std::uint32_t slot = slots_[probe(c)];
  return slot == 0 ? npos : slot - 1;
}

std::pair<std::size_t, bool> ConfigIndex::insert(
    const config::Configuration& c) {
  // Keep the probe table under half full so probe chains stay short.
  if (slots_.size() < (keys_.size() + 1) * 2) grow_slots();
  std::uint32_t& slot = slots_[probe(c)];
  if (slot != 0) return {slot - 1, false};
  keys_.push_back(c);
  slot = static_cast<std::uint32_t>(keys_.size());
  return {keys_.size() - 1, true};
}

void ConfigIndex::grow_slots() {
  // Double, but never below twice the key count: a rebuild over a table
  // smaller than the key list would probe forever looking for a free slot.
  std::size_t capacity = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  while (capacity < (keys_.size() + 1) * 2) capacity *= 2;
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    std::size_t slot = keys_[i].hash() & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(i) + 1;
  }
}

void ConfigIndex::clear() noexcept {
  keys_.clear();
  slots_.clear();
}

}  // namespace rac::rl
