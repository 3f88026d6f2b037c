#include "util/rng.hpp"

#include <cmath>
#include <istream>
#include <numbers>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"
#include "util/lineio.hpp"

namespace rac::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // Two mixing rounds so adjacent indices land far apart even for small
  // human-chosen base seeds.
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  splitmix64(state);
  return splitmix64(state);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not be seeded with all zeros; splitmix64 cannot produce
  // four consecutive zero outputs, so the state is always valid.
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  RAC_EXPECT(lo <= hi, "uniform_int: inverted range");
  const auto span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<int>((*this)() % span);
}

double Rng::exponential(double mean) {
  RAC_EXPECT(mean > 0.0, "exponential: non-positive mean");
  double u = uniform();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal_unit(double sigma) noexcept {
  // exp(N(-sigma^2/2, sigma)) has mean exactly 1.
  return std::exp(normal(-0.5 * sigma * sigma, sigma));
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

int Rng::geometric(double p) {
  RAC_EXPECT(p > 0.0 && p <= 1.0, "geometric: p outside (0, 1]");
  if (p >= 1.0) return 1;
  // Inversion: one uniform replaces the expected 1/p bernoulli draws of
  // trial-by-trial sampling. uniform() < 1, so log1p(-u) is finite; the
  // quotient is bounded by ~log(2^53) / -log1p(-p), far below INT_MAX for
  // any p this codebase uses.
  const double u = uniform();
  return 1 + static_cast<int>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

std::size_t Rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  RAC_EXPECT(total > 0.0, "categorical: weights sum to zero");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: return the last bucket
}

Rng Rng::split() noexcept { return Rng((*this)()); }

RngState Rng::state() const noexcept {
  RngState out;
  out.words = s_;
  out.cached_normal = cached_normal_;
  out.has_cached_normal = has_cached_normal_;
  return out;
}

void Rng::restore(const RngState& state) {
  if (state.words == decltype(state.words){}) {
    throw std::invalid_argument("Rng::restore: all-zero state");
  }
  s_ = state.words;
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

void write_rng_state(std::ostream& os, std::string_view label,
                     const RngState& state) {
  os << label;
  for (const std::uint64_t word : state.words) os << ' ' << format_u64(word);
  os << ' ' << bool_token(state.has_cached_normal) << ' '
     << format_double(state.cached_normal) << "\n";
}

RngState read_rng_state(std::istream& is, std::string_view label) {
  expect_token(is, label, label);
  RngState state;
  for (std::uint64_t& word : state.words) word = read_u64(is, label);
  if (state.words == decltype(state.words){}) {
    throw std::runtime_error(std::string(label) + ": all-zero state");
  }
  state.has_cached_normal = read_bool(is, label);
  state.cached_normal = read_double(is, label);
  return state;
}

}  // namespace rac::util
