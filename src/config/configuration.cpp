#include "config/configuration.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/lineio.hpp"

namespace rac::config {

namespace {
int clamp_to_range(const ParamSpec& s, int v) noexcept {
  return std::clamp(v, s.min, s.max);
}
}  // namespace

Configuration::Configuration() noexcept {
  for (const auto& s : catalog()) values_[index(s.id)] = s.default_value;
}

Configuration::Configuration(const std::array<int, kNumParams>& values) noexcept {
  for (const auto& s : catalog()) {
    values_[index(s.id)] = clamp_to_range(s, values[index(s.id)]);
  }
}

void Configuration::set(ParamId id, int value) noexcept {
  values_[index(id)] = clamp_to_range(spec(id), value);
}

double Configuration::normalized(ParamId id) const noexcept {
  const auto& s = spec(id);
  return static_cast<double>(value(id) - s.min) /
         static_cast<double>(s.max - s.min);
}

void Configuration::set_normalized(ParamId id, double t) noexcept {
  const auto& s = spec(id);
  t = std::clamp(t, 0.0, 1.0);
  const int v = s.min + static_cast<int>(std::lround(t * (s.max - s.min)));
  set(id, v);
}

bool Configuration::step(ParamId id, int steps) noexcept {
  const auto& s = spec(id);
  const int before = value(id);
  set(id, before + steps * s.fine_step);
  return value(id) != before;
}

std::array<double, kNumParams> Configuration::normalized_values() const noexcept {
  std::array<double, kNumParams> out{};
  for (ParamId id : kAllParams) out[index(id)] = normalized(id);
  return out;
}

std::size_t Configuration::hash() const noexcept {
  // FNV-1a over the packed values: stable across runs (unlike std::hash).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int v : values_) {
    auto u = static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

std::string Configuration::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& s : catalog()) {
    if (!first) os << ' ';
    first = false;
    os << s.name << '=' << value(s.id);
  }
  return os.str();
}

std::string Configuration::compact() const {
  std::ostringstream os;
  bool first = true;
  for (int v : values_) {
    if (!first) os << '/';
    first = false;
    os << v;
  }
  return os.str();
}

void write_configuration(std::ostream& os, const Configuration& c) {
  const char* separator = "";
  for (const int v : c.values()) {
    os << separator << util::format_i64(v);
    separator = " ";
  }
}

Configuration read_configuration(std::istream& is, std::string_view what) {
  std::array<int, kNumParams> values{};
  for (int& v : values) v = util::read_int(is, what);
  const Configuration configuration(values);
  if (configuration.values() != values) {
    throw std::runtime_error(std::string(what) +
                             ": configuration outside parameter ranges");
  }
  return configuration;
}

}  // namespace rac::config
