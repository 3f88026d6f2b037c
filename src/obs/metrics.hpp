// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The hot paths of the RAC pipeline (TD sweeps, environment evaluations,
// MVA recursions) update metrics millions of times per experiment, so the
// update path is a single relaxed atomic operation on a handle obtained
// once; registration (name lookup) is mutex-guarded and meant to happen
// once per call site (function-local static handles). Snapshots are
// consistent enough for reporting -- each cell is read atomically, the set
// of cells is read under the registration mutex -- and export to an
// aligned text form and to JSON for machine consumption.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rac::obs {

/// Monotonic event count. Updates are relaxed atomic adds.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// overflow bucket counts the rest. Also tracks sum and count so means are
/// exact regardless of bucketing.
class Histogram {
 public:
  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Count in bucket `i` (i == bounds().size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;
  const std::string& name() const noexcept { return name_; }

  /// `count` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);
  std::string name_;
  std::vector<double> bounds_;  // sorted ascending
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 cells
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// -- snapshots ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1 entries
};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Aligned "name value" text block (histograms as count/mean/buckets).
  std::string to_text() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;

  /// Lookup helpers for tests and reports; return nullptr when absent.
  const CounterSample* counter(const std::string& name) const;
  const GaugeSample* gauge(const std::string& name) const;
  const HistogramSample* histogram(const std::string& name) const;
};

/// Named metric store. Handles returned by `counter` / `gauge` /
/// `histogram` stay valid for the registry's lifetime; repeated calls with
/// one name return the same handle (a histogram's bounds are fixed by the
/// first registration).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Zero every metric (keeps registrations). Benches call this between
  /// phases so each phase reports its own activity.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

/// Fold several snapshots (e.g. one per fleet shard) into one aggregate,
/// sorted by name: counters and gauges sum per name; histograms sum count
/// and sum per name, and bucket counts are added when every contributing
/// histogram shares the first one's bounds (on a layout mismatch the
/// merged entry keeps count/sum/mean exact and drops the buckets --
/// summing unlike layouts would fabricate a distribution).
MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts);

/// Shared bucket layout for microsecond-scale latency histograms:
/// 1us .. ~8.6s in powers of 2.
std::vector<double> latency_us_bounds();

/// The process-wide registry every built-in instrumentation point uses.
Registry& default_registry();

/// Resolve an injectable registry pointer: `r` if non-null, else the
/// process-wide default. Library code outside src/obs/ must route every
/// fallback through this helper rather than naming default_registry()
/// directly (rac-analyze rule `default-registry`): direct references are how
/// components end up pinned to the global registry and silently ignore an
/// injected one.
Registry& registry_or_default(Registry* r);

}  // namespace rac::obs
