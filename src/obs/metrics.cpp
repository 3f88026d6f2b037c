#include "obs/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/lineio.hpp"

namespace rac::obs {

namespace {

void add_double(std::atomic<double>& cell, double delta) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

// Shortest-decimal via to_chars: locale-immune and exact, so the text and
// JSON exporters render the same bytes and the JSON parses back to the
// identical double (the setprecision(6) ostream formatting this replaced
// both truncated and honored the global locale's decimal point).
std::string fmt_double(double v) { return util::format_double_decimal(v); }

}  // namespace

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must not be empty");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_double(sum_, v);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  if (start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("Histogram: bad exponential bounds");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> latency_us_bounds() {
  return Histogram::exponential_bounds(1.0, 2.0, 24);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) {
    if (c->name() == name) return *c;
  }
  counters_.emplace_back(new Counter(name));
  return *counters_.back();
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& g : gauges_) {
    if (g->name() == name) return *g;
  }
  gauges_.emplace_back(new Gauge(name));
  return *gauges_.back();
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& h : histograms_) {
    if (h->name() == name) return *h;
  }
  histograms_.emplace_back(new Histogram(name, std::move(bounds)));
  return *histograms_.back();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& c : counters_) {
      snap.counters.push_back({c->name(), c->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& g : gauges_) {
      snap.gauges.push_back({g->name(), g->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      HistogramSample s;
      s.name = h->name();
      s.count = h->count();
      s.sum = h->sum();
      s.mean = h->mean();
      s.bounds = h->bounds();
      s.bucket_counts.reserve(s.bounds.size() + 1);
      for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
        s.bucket_counts.push_back(h->bucket_count(i));
      }
      snap.histograms.push_back(std::move(s));
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) c->reset();
  for (const auto& g : gauges_) g->reset();
  for (const auto& h : histograms_) h->reset();
}

std::string MetricsSnapshot::to_text() const {
  std::size_t width = 0;
  for (const auto& c : counters) width = std::max(width, c.name.size());
  for (const auto& g : gauges) width = std::max(width, g.name.size());
  for (const auto& h : histograms) width = std::max(width, h.name.size());

  std::ostringstream os;
  for (const auto& c : counters) {
    os << std::left << std::setw(static_cast<int>(width)) << c.name << "  "
       << c.value << "\n";
  }
  for (const auto& g : gauges) {
    os << std::left << std::setw(static_cast<int>(width)) << g.name << "  "
       << fmt_double(g.value) << "\n";
  }
  for (const auto& h : histograms) {
    os << std::left << std::setw(static_cast<int>(width)) << h.name
       << "  count=" << h.count << " mean=" << fmt_double(h.mean)
       << " sum=" << fmt_double(h.sum) << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << counters[i].name << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << gauges[i].name << "\":" << fmt_double(gauges[i].value);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i > 0) os << ",";
    os << "\"" << h.name << "\":{\"count\":" << h.count
       << ",\"sum\":" << fmt_double(h.sum) << ",\"mean\":" << fmt_double(h.mean)
       << ",\"bounds\":[";
    for (std::size_t j = 0; j < h.bounds.size(); ++j) {
      if (j > 0) os << ",";
      os << fmt_double(h.bounds[j]);
    }
    os << "],\"buckets\":[";
    for (std::size_t j = 0; j < h.bucket_counts.size(); ++j) {
      if (j > 0) os << ",";
      os << h.bucket_counts[j];
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

const CounterSample* MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts) {
  // std::map keys keep the merged output sorted by name without a second
  // pass; this path is reporting-time only, never hot.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSample> histograms;
  std::map<std::string, bool> bounds_match;
  for (const MetricsSnapshot& part : parts) {
    for (const CounterSample& c : part.counters) counters[c.name] += c.value;
    for (const GaugeSample& g : part.gauges) gauges[g.name] += g.value;
    for (const HistogramSample& h : part.histograms) {
      auto [it, inserted] = histograms.emplace(h.name, h);
      if (inserted) {
        bounds_match[h.name] = true;
        continue;
      }
      HistogramSample& merged = it->second;
      merged.count += h.count;
      merged.sum += h.sum;
      bool& match = bounds_match[h.name];
      match = match && merged.bounds == h.bounds &&
              merged.bucket_counts.size() == h.bucket_counts.size();
      if (match) {
        for (std::size_t i = 0; i < merged.bucket_counts.size(); ++i) {
          merged.bucket_counts[i] += h.bucket_counts[i];
        }
      } else {
        merged.bounds.clear();
        merged.bucket_counts.clear();
      }
    }
  }
  MetricsSnapshot out;
  out.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) out.counters.push_back({name, value});
  out.gauges.reserve(gauges.size());
  for (const auto& [name, value] : gauges) out.gauges.push_back({name, value});
  out.histograms.reserve(histograms.size());
  for (auto& [name, merged] : histograms) {
    merged.mean = merged.count == 0
                      ? 0.0
                      : merged.sum / static_cast<double>(merged.count);
    out.histograms.push_back(std::move(merged));
  }
  return out;
}

Registry& default_registry() {
  static Registry registry;
  return registry;
}

Registry& registry_or_default(Registry* r) {
  return r != nullptr ? *r : default_registry();
}

}  // namespace rac::obs
