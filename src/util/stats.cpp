#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace rac::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() noexcept { *this = RunningStats{}; }

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

Ewma::Ewma(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("Ewma: alpha outside (0, 1]");
  }
}

void Ewma::add(double x) {
  if (!std::isfinite(x)) {
    throw std::invalid_argument("Ewma::add: non-finite sample");
  }
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ += alpha_ * (x - value_);
  }
}

void Ewma::reset() noexcept {
  value_ = 0.0;
  initialized_ = false;
}

void Ewma::restore(double value, bool initialized) {
  if (initialized && !std::isfinite(value)) {
    throw std::invalid_argument("Ewma::restore: non-finite value");
  }
  value_ = initialized ? value : 0.0;
  initialized_ = initialized;
}

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SlidingWindow: zero capacity");
  }
}

void SlidingWindow::add(double x) {
  if (!std::isfinite(x)) {
    throw std::invalid_argument("SlidingWindow::add: non-finite sample");
  }
  data_.push_back(x);
  if (data_.size() > capacity_) data_.pop_front();
}

std::vector<double> SlidingWindow::values() const {
  return std::vector<double>(data_.begin(), data_.end());
}

void SlidingWindow::restore(std::span<const double> samples) {
  if (samples.size() > capacity_) {
    throw std::invalid_argument("SlidingWindow::restore: more samples than "
                                "capacity");
  }
  for (const double s : samples) {
    if (!std::isfinite(s)) {
      throw std::invalid_argument("SlidingWindow::restore: non-finite sample");
    }
  }
  data_.assign(samples.begin(), samples.end());
}

double SlidingWindow::mean() const noexcept {
  if (data_.empty()) return 0.0;
  return std::accumulate(data_.begin(), data_.end(), 0.0) /
         static_cast<double>(data_.size());
}

double SlidingWindow::min() const noexcept {
  if (data_.empty()) return 0.0;
  return *std::min_element(data_.begin(), data_.end());
}

double SlidingWindow::max() const noexcept {
  if (data_.empty()) return 0.0;
  return *std::max_element(data_.begin(), data_.end());
}

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile: empty sample set");
  }
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  if (samples.size() == 1) return samples.front();
  // The two order statistics the interpolation reads, selected in linear
  // time instead of sorting the whole copy: the lo-th by nth_element, the
  // next as the least of what nth_element left above it.
  std::vector<double> order(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(order.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto lo_it = order.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(order.begin(), lo_it, order.end());
  const double lo_value = *lo_it;
  const double hi_value =
      lo + 1 < order.size() ? *std::min_element(lo_it + 1, order.end())
                            : lo_value;
  const double frac = rank - static_cast<double>(lo);
  return lo_value + frac * (hi_value - lo_value);
}

double mean_of(std::span<const double> samples) noexcept {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double r_squared(std::span<const double> observed,
                 std::span<const double> predicted) {
  if (observed.size() != predicted.size()) {
    throw std::invalid_argument("r_squared: size mismatch");
  }
  if (observed.empty()) {
    throw std::invalid_argument("r_squared: empty sample set");
  }
  const double obs_mean = mean_of(observed);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double res = observed[i] - predicted[i];
    const double dev = observed[i] - obs_mean;
    ss_res += res * res;
    ss_tot += dev * dev;
  }
  // Exact-zero checks are the point here: a constant observed series has
  // no variance to explain, and only a bitwise-perfect prediction of it
  // deserves R^2 = 1.
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;  // rac-analyze: allow(float-eq)
  return 1.0 - ss_res / ss_tot;
}

}  // namespace rac::util
