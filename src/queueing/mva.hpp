// Exact Mean Value Analysis (MVA) for single-class closed queueing
// networks with load-dependent service stations and a delay (think-time)
// center.
//
// This is the analytic substrate under the web-system model: each VM is a
// load-dependent station whose service rate mu(j) encodes its core count,
// its admission limit (jobs beyond the limit receive no service and queue),
// and concurrency overheads (per-job demand inflation at high admitted
// concurrency). The exact MVA recursion with marginal queue-length
// probabilities (Reiser & Lavenberg) solves the network in O(N * S * N)
// time for population N.
//
// Every solve runs the recursion in one pass from population 1. The
// per-station working arrays (pre-extended rate tables and marginals) are
// scratch owned by the network and reused across its solves instead of
// being reallocated per solve.
//
// In x86 builds the recursion runs with subnormals flushed to zero (SSE
// FTZ and DAZ): at hundreds of jobs the marginal tails underflow, and each
// subnormal would cost a microcode assist. A scoped guard restores the
// calling thread's MXCSR on every exit, so callers keep their FP mode. On
// the twin's networks the flush moves no result bit (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rac::obs {
class Registry;
}

namespace rac::queueing {

/// A load-dependent queueing station. `rates[j-1]` is the aggregate service
/// rate (jobs/second) when j jobs are present. Rates must be positive and
/// the vector is implicitly extended with its last value for j beyond its
/// length.
struct Station {
  std::string name;
  double visit_ratio = 1.0;
  std::vector<double> rates;
};

/// Convenience constructors -------------------------------------------------

/// M/M/1-PS-like station: rate mu regardless of population.
Station make_queueing_station(std::string name, double service_rate,
                              double visit_ratio = 1.0);

/// Multi-server station: c servers each of rate `per_server_rate`;
/// mu(j) = min(j, c) * per_server_rate. `max_population` bounds the rate
/// table length.
Station make_multiserver_station(std::string name, int servers,
                                 double per_server_rate, int max_population,
                                 double visit_ratio = 1.0);

struct StationResult {
  std::string name;
  double residence_time = 0.0;   // total time per system-level request
  double queue_length = 0.0;     // mean jobs at station (queued + served)
  double utilization = 0.0;      // P(station non-empty)
};

struct MvaResult {
  int population = 0;
  double throughput = 0.0;       // X(N), jobs/second
  double response_time = 0.0;    // R(N), excludes think time
  double think_time = 0.0;       // Z
  std::vector<StationResult> stations;

  /// Little's-law check value: X * (R + Z); equals N for an exact solve.
  double little_check() const noexcept {
    return throughput * (response_time + think_time);
  }
};

/// A closed interactive network: N clients cycling through a think delay
/// and a sequence of load-dependent stations.
///
/// Not safe for concurrent solves on one instance: solving mutates the
/// internal recursion scratch (each pool task should own its network, which
/// is how every caller in this codebase already works).
class ClosedNetwork {
 public:
  /// `think_time` is the delay-center service time, in seconds (>= 0).
  explicit ClosedNetwork(double think_time = 0.0);

  void set_think_time(double think_time);
  double think_time() const noexcept { return think_time_; }

  /// Add a station; returns its index.
  std::size_t add_station(Station station);

  /// Replace station `index`'s rate table (same validation as add_station).
  void set_station_rates(std::size_t index, std::vector<double> rates);

  std::size_t num_stations() const noexcept { return stations_.size(); }
  const Station& station(std::size_t i) const { return stations_.at(i); }

  /// Exact MVA solve for the given population (>= 0). Throws
  /// std::invalid_argument for a negative population or an empty network
  /// with zero think time. Population 0 is the defined empty system:
  /// zero throughput/response/queues, utilization 0 at every station.
  ///
  /// Precision: the empty-station marginal is 1 - sum(others), which
  /// cancels once a station's rate keeps rising over hundreds of jobs.
  /// The analytic twin's outer network (a think delay plus its subnet's
  /// flow-equivalent station) is in that regime at 700-1050 clients in
  /// Table-2 contexts 1, 2 and 6: R there is off by up to 92% against a
  /// long-double birth-death solve, while every context at 400 clients or
  /// fewer stays within 2.1e-15 (DESIGN.md §13, ROADMAP item 3).
  MvaResult solve(int population) const;

  /// Throughput X(n) for every population n = 1..max_population, from one
  /// pass of the MVA recursion. `curve[n-1]` is X(n).
  ///
  /// This is the flow-equivalent service center (FESC) construction: a
  /// subnetwork solved with think time 0 yields the rate table mu(j) =
  /// X_sub(j) of a single load-dependent station that is exactly
  /// equivalent to the subnetwork in any enclosing product-form model.
  std::vector<double> throughput_curve(int max_population) const;

  /// Route this network's solve/step counters to `registry` (nullptr means
  /// the process default). Handles are resolved per solve, so the setting
  /// takes effect immediately.
  void set_registry(obs::Registry* registry) noexcept { registry_ = registry; }

 private:
  // Per-station recursion scratch: the rate table pre-extended to the
  // population (rate[j-1] for j = 1..N, implicit last-value extension
  // applied once) alongside jr[j-1] = j / rate[j-1], the exact per-job
  // demand term of the residence-time loop, and marginal[j] = P(j jobs at
  // the station) at the population last stepped.
  struct StationScratch {
    std::vector<double> rate;
    std::vector<double> jr;
    std::vector<double> marginal;
  };
  struct Totals {
    double throughput = 0.0;
    double response = 0.0;
  };

  /// Run the recursion for populations 1..population (>= 1), appending
  /// X(n) to `curve` when non-null. Leaves each station's residence time
  /// in residence_ and its marginals in scratch_; returns X and R at
  /// `population`.
  Totals recurse(int population, std::vector<double>* curve) const;

  double think_time_;
  std::vector<Station> stations_;
  obs::Registry* registry_ = nullptr;
  mutable std::vector<StationScratch> scratch_;
  mutable std::vector<double> residence_;
};

}  // namespace rac::queueing
