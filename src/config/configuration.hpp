// A configuration is the RL state: one value per Table-1 parameter.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "config/params.hpp"

namespace rac::config {

class Configuration {
 public:
  /// Default-constructed configurations hold the Table-1 defaults.
  Configuration() noexcept;

  /// Construct from raw values; each value is clamped into its range.
  explicit Configuration(const std::array<int, kNumParams>& values) noexcept;

  static Configuration defaults() noexcept { return Configuration{}; }

  int value(ParamId id) const noexcept { return values_[index(id)]; }

  /// Sets a value, clamping into the parameter's [min, max] range.
  void set(ParamId id, int value) noexcept;

  /// Parameter value mapped to [0, 1] over its range.
  double normalized(ParamId id) const noexcept;

  /// Set from a normalized position in [0, 1] (clamped), rounded to the
  /// nearest integer value in range.
  void set_normalized(ParamId id, double t) noexcept;

  /// Move the parameter by `steps` fine-grid steps (may be negative).
  /// Clamps at the range boundary. Returns true if the value changed.
  bool step(ParamId id, int steps) noexcept;

  const std::array<int, kNumParams>& values() const noexcept { return values_; }

  /// All 8 values as normalized doubles (regression feature vector).
  std::array<double, kNumParams> normalized_values() const noexcept;

  bool operator==(const Configuration&) const noexcept = default;

  /// Stable hash for use as a Q-table key.
  std::size_t hash() const noexcept;

  /// "MaxClients=150 KeepAlive timeout=15 ..." rendering.
  std::string to_string() const;

  /// Compact "150/15/5/15/200/30/5/50" rendering for tables.
  std::string compact() const;

 private:
  std::array<int, kNumParams> values_;
};

struct ConfigurationHash {
  std::size_t operator()(const Configuration& c) const noexcept {
    return c.hash();
  }
};

/// The persisted form shared by every on-disk format: the kNumParams
/// values as util/lineio integer tokens, space-separated, with no leading
/// or trailing separator. read_configuration throws std::runtime_error
/// naming `what` on a malformed token or on a value outside its
/// parameter's range (the clamping constructor would silently change it).
void write_configuration(std::ostream& os, const Configuration& c);
Configuration read_configuration(std::istream& is, std::string_view what);

}  // namespace rac::config
