#include "queueing/mva.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/contracts.hpp"

namespace rac::queueing {

namespace {

void validate_station_rates(const std::vector<double>& rates) {
  if (rates.empty()) {
    throw std::invalid_argument("ClosedNetwork: station has no rates");
  }
  for (double r : rates) {
    if (r <= 0.0) {
      throw std::invalid_argument("ClosedNetwork: non-positive service rate");
    }
  }
}

/// Inner-loop iterations of one recursion pass to `population`: each
/// station's residence and marginal-update loops both run n steps at each
/// population n, so 2 * sum_{n=1}^{N} n = N * (N + 1) per station.
std::uint64_t recursion_steps(int population, std::size_t num_stations) {
  const auto n = static_cast<std::uint64_t>(population);
  return n * (n + 1) * static_cast<std::uint64_t>(num_stations);
}

#if defined(__SSE2__)
/// Sets the SSE flush-to-zero and denormals-are-zero bits (MXCSR | 0x8040)
/// for its scope and restores the calling thread's saved MXCSR on every
/// exit, exceptions included. At hundreds of jobs a station's marginal
/// tail decays below DBL_MIN, and every subnormal operand or result of the
/// recursion costs a microcode assist. Flushing is not bit-exact by
/// construction: a tail value flushed to zero would show only if later
/// populations' updates grew it back to within 2^-53 of its station's
/// tail sum. On the twin's networks they do not; DESIGN.md §13 has the
/// evidence, and Mva.UnderflowingTailsMatchAnUnflushedTranscription checks
/// it. Pool threads run the twin and, while they wait on a region, other
/// tasks. That is safe because this scope contains no wait, so no other
/// task ever runs under the flushed mode.
class FlushSubnormals {
 public:
  FlushSubnormals() noexcept : saved_(_mm_getcsr()) {
    _mm_setcsr(saved_ | kFlushToZero | kDenormalsAreZero);
  }
  ~FlushSubnormals() { _mm_setcsr(saved_); }
  FlushSubnormals(const FlushSubnormals&) = delete;
  FlushSubnormals& operator=(const FlushSubnormals&) = delete;

 private:
  static constexpr unsigned kFlushToZero = 0x8000;
  static constexpr unsigned kDenormalsAreZero = 0x0040;
  unsigned saved_;
};
#endif

}  // namespace

Station make_queueing_station(std::string name, double service_rate,
                              double visit_ratio) {
  if (service_rate <= 0.0) {
    throw std::invalid_argument("make_queueing_station: rate must be > 0");
  }
  return Station{std::move(name), visit_ratio, {service_rate}};
}

Station make_multiserver_station(std::string name, int servers,
                                 double per_server_rate, int max_population,
                                 double visit_ratio) {
  if (servers < 1 || per_server_rate <= 0.0 || max_population < 1) {
    throw std::invalid_argument("make_multiserver_station: bad arguments");
  }
  std::vector<double> rates;
  const int table = std::min(servers, max_population);
  rates.reserve(static_cast<std::size_t>(table));
  for (int j = 1; j <= table; ++j) rates.push_back(j * per_server_rate);
  return Station{std::move(name), visit_ratio, std::move(rates)};
}

ClosedNetwork::ClosedNetwork(double think_time) : think_time_(think_time) {
  if (think_time < 0.0) {
    throw std::invalid_argument("ClosedNetwork: negative think time");
  }
}

void ClosedNetwork::set_think_time(double think_time) {
  if (think_time < 0.0) {
    throw std::invalid_argument("ClosedNetwork: negative think time");
  }
  think_time_ = think_time;
}

std::size_t ClosedNetwork::add_station(Station station) {
  validate_station_rates(station.rates);
  if (station.visit_ratio <= 0.0) {
    throw std::invalid_argument("ClosedNetwork: non-positive visit ratio");
  }
  stations_.push_back(std::move(station));
  return stations_.size() - 1;
}

void ClosedNetwork::set_station_rates(std::size_t index,
                                      std::vector<double> rates) {
  if (index >= stations_.size()) {
    throw std::invalid_argument("set_station_rates: no such station");
  }
  validate_station_rates(rates);
  stations_[index].rates = std::move(rates);
}

ClosedNetwork::Totals ClosedNetwork::recurse(
    int population, std::vector<double>* curve) const {
#if defined(__SSE2__)
  const FlushSubnormals flush;
#endif
  const std::size_t num_s = stations_.size();
  const std::size_t pop = static_cast<std::size_t>(population);

  // Extend each rate table to the population once (implicit last-value
  // extension) so the inner loops index flat arrays, and start every
  // station empty: P(0 jobs) = 1 at population 0.
  scratch_.resize(num_s);
  for (std::size_t s = 0; s < num_s; ++s) {
    StationScratch& sc = scratch_[s];
    const std::vector<double>& rates = stations_[s].rates;
    sc.rate.resize(pop);
    sc.jr.resize(pop);
    for (std::size_t j = 1; j <= pop; ++j) {
      const double rate = rates[std::min(j, rates.size()) - 1];
      sc.rate[j - 1] = rate;
      sc.jr[j - 1] = static_cast<double>(j) / rate;
    }
    sc.marginal.assign(pop + 1, 0.0);
    sc.marginal[0] = 1.0;
  }
  residence_.resize(num_s);

  Totals totals;
  for (int n = 1; n <= population; ++n) {
    // Residence times at population n from the marginals at n-1. jr[j-1]
    // is the precomputed j / mu(j) term, so each station's loop is a plain
    // dot product with the same summation order (and bit pattern) as the
    // textbook form. Stations are processed in pairs with independent
    // accumulator chains: the serial FP-add latency of one station's sum
    // hides the other's, roughly doubling throughput on two-station
    // networks, while each per-station sum keeps its exact order.
    double response = 0.0;
    std::size_t s = 0;
    for (; s + 1 < num_s; s += 2) {
      const StationScratch& sc0 = scratch_[s];
      const StationScratch& sc1 = scratch_[s + 1];
      const double* jr0 = sc0.jr.data();
      const double* m0 = sc0.marginal.data();
      const double* jr1 = sc1.jr.data();
      const double* m1 = sc1.marginal.data();
      double r0 = 0.0;
      double r1 = 0.0;
      for (int j = 0; j < n; ++j) {
        r0 += jr0[j] * m0[j];
        r1 += jr1[j] * m1[j];
      }
      const double res0 = stations_[s].visit_ratio * r0;
      const double res1 = stations_[s + 1].visit_ratio * r1;
      residence_[s] = res0;
      residence_[s + 1] = res1;
      response += res0;
      response += res1;
    }
    if (s < num_s) {
      const StationScratch& sc = scratch_[s];
      const double* jr = sc.jr.data();
      const double* m = sc.marginal.data();
      double r = 0.0;
      for (int j = 0; j < n; ++j) r += jr[j] * m[j];
      const double res = stations_[s].visit_ratio * r;
      residence_[s] = res;
      response += res;
    }
    const double throughput =
        static_cast<double>(n) / (think_time_ + response);

    // Update marginal probabilities for population n (in place, from high j
    // to low so that m[j-1] still refers to population n-1). The division
    // stays per step: tv / rate * m matches the original evaluation order
    // bit for bit, a hoisted reciprocal would not. Same pairwise
    // interleaving as above; the per-station divide/add chains stay
    // independent and bit-exact.
    s = 0;
    for (; s + 1 < num_s; s += 2) {
      StationScratch& sc0 = scratch_[s];
      StationScratch& sc1 = scratch_[s + 1];
      const double* rate0 = sc0.rate.data();
      const double* rate1 = sc1.rate.data();
      double* m0 = sc0.marginal.data();
      double* m1 = sc1.marginal.data();
      const double tv0 = throughput * stations_[s].visit_ratio;
      const double tv1 = throughput * stations_[s + 1].visit_ratio;
      double tail0 = 0.0;
      double tail1 = 0.0;
#if defined(__SSE2__)
      // Pack the pair's divisions into one divpd: IEEE division and
      // multiplication are exact per lane, so each lane reproduces the
      // scalar tv / rate * m bit pattern while the divider unit retires
      // two stations' steps per issue. (Intrinsics also pin the mul+add
      // sequence: no FMA contraction can creep in and change bits.)
      {
        const __m128d tv_v = _mm_set_pd(tv1, tv0);
        __m128d tail_v = _mm_setzero_pd();
        for (int j = n; j >= 1; --j) {
          const __m128d rate_v = _mm_set_pd(rate1[j - 1], rate0[j - 1]);
          const __m128d m_v = _mm_set_pd(m1[j - 1], m0[j - 1]);
          const __m128d p = _mm_mul_pd(_mm_div_pd(tv_v, rate_v), m_v);
          _mm_storel_pd(&m0[static_cast<std::size_t>(j)], p);
          _mm_storeh_pd(&m1[static_cast<std::size_t>(j)], p);
          tail_v = _mm_add_pd(tail_v, p);
        }
        _mm_storel_pd(&tail0, tail_v);
        _mm_storeh_pd(&tail1, tail_v);
      }
#else
      for (int j = n; j >= 1; --j) {
        const double p0 = tv0 / rate0[j - 1] * m0[j - 1];
        const double p1 = tv1 / rate1[j - 1] * m1[j - 1];
        m0[static_cast<std::size_t>(j)] = p0;
        m1[static_cast<std::size_t>(j)] = p1;
        tail0 += p0;
        tail1 += p1;
      }
#endif
      m0[0] = std::max(0.0, 1.0 - tail0);
      m1[0] = std::max(0.0, 1.0 - tail1);
    }
    if (s < num_s) {
      StationScratch& sc = scratch_[s];
      const double* rate = sc.rate.data();
      double* m = sc.marginal.data();
      const double tv = throughput * stations_[s].visit_ratio;
      double tail = 0.0;
      for (int j = n; j >= 1; --j) {
        const double p = tv / rate[j - 1] * m[j - 1];
        m[static_cast<std::size_t>(j)] = p;
        tail += p;
      }
      m[0] = std::max(0.0, 1.0 - tail);
    }

    totals = {throughput, response};
    if (curve != nullptr) curve->push_back(throughput);
  }
  return totals;
}

MvaResult ClosedNetwork::solve(int population) const {
  if (population < 0) {
    throw std::invalid_argument("ClosedNetwork::solve: negative population");
  }
  if (stations_.empty() && think_time_ <= 0.0) {
    throw std::invalid_argument(
        "ClosedNetwork::solve: empty network with zero think time");
  }

  // The MVA recursion is the analytic model's inner loop; count solves and
  // recursion steps (both loops of each station run n steps at each
  // population n) so perf work can cross-check the profiler against work.
  const obs::ProfileScope profile("mva.solve");
  obs::Registry& reg = obs::registry_or_default(registry_);
  reg.counter("queueing.mva.solves").add(1);

  const std::size_t num_s = stations_.size();
  MvaResult result;
  result.population = population;
  result.think_time = think_time_;
  result.stations.resize(num_s);
  for (std::size_t s = 0; s < num_s; ++s) {
    result.stations[s].name = stations_[s].name;
  }

  if (population > 0) {
    const Totals totals = recurse(population, nullptr);
    reg.counter("queueing.mva.recursion_steps")
        .add(recursion_steps(population, num_s));
    result.throughput = totals.throughput;
    result.response_time = totals.response;
    for (std::size_t s = 0; s < num_s; ++s) {
      StationResult& sr = result.stations[s];
      sr.residence_time = residence_[s];
      sr.queue_length = result.throughput * sr.residence_time;
      sr.utilization = 1.0 - scratch_[s].marginal[0];
    }
  }
  // Population 0 keeps the zero-initialized result: an empty system has
  // zero throughput, zero response time, and idle stations. It flows
  // through the same audit below instead of skipping it.
  if constexpr (util::kAuditEnabled) {
    RAC_AUDIT(std::isfinite(result.throughput) && result.throughput >= 0.0,
              "MVA solve: non-finite or negative throughput");
    RAC_AUDIT(std::isfinite(result.response_time) &&
                  result.response_time >= 0.0,
              "MVA solve: non-finite or negative response time");
    for (const auto& sr : result.stations) {
      RAC_AUDIT(std::isfinite(sr.queue_length) && sr.queue_length >= 0.0,
                "MVA solve: negative station queue length");
      RAC_AUDIT(sr.utilization >= 0.0 && sr.utilization <= 1.0 + 1e-9,
                "MVA solve: utilization outside [0, 1]");
    }
  }
  return result;
}

std::vector<double> ClosedNetwork::throughput_curve(int max_population) const {
  if (max_population < 1) {
    throw std::invalid_argument("throughput_curve: population must be >= 1");
  }
  if (stations_.empty()) {
    throw std::invalid_argument("throughput_curve: no stations");
  }
  const obs::ProfileScope profile("mva.throughput_curve");
  obs::Registry& reg = obs::registry_or_default(registry_);
  reg.counter("queueing.mva.throughput_curves").add(1);
  std::vector<double> curve;
  curve.reserve(static_cast<std::size_t>(max_population));
  recurse(max_population, &curve);
  reg.counter("queueing.mva.recursion_steps")
      .add(recursion_steps(max_population, stations_.size()));
  if constexpr (util::kAuditEnabled) {
    // X(n) is non-decreasing in n only when every station's service rate
    // is non-decreasing in its local population. The web-system model
    // deliberately violates that (per-job demand inflation at high
    // admitted concurrency models thrashing, so mu(j) drops and X(n) may
    // genuinely decline past saturation) -- audit monotonicity only for
    // networks where it is a theorem. Allow a sliver of float slack so
    // the audit flags model bugs, not roundoff.
    const bool monotone_rates = std::all_of(
        stations_.begin(), stations_.end(), [](const Station& s) {
          return std::is_sorted(s.rates.begin(), s.rates.end());
        });
    if (monotone_rates) {
      for (std::size_t i = 1; i < curve.size(); ++i) {
        RAC_AUDIT(
            curve[i] + 1e-9 * std::max(1.0, curve[i - 1]) >= curve[i - 1],
            "MVA throughput_curve: throughput decreased with population");
      }
    }
    for (double x : curve) {
      RAC_AUDIT(std::isfinite(x) && x >= 0.0,
                "MVA throughput_curve: non-finite or negative throughput");
    }
  }
  return curve;
}

}  // namespace rac::queueing
