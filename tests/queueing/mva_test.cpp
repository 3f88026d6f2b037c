#include "queueing/mva.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rac::queueing {
namespace {

// Closed single-queue + think-time model with known exact solutions (the
// "machine repairman" / interactive system model).

TEST(Mva, SingleCustomerNoQueueing) {
  ClosedNetwork net(10.0);
  net.add_station(make_queueing_station("s", 2.0));  // service time 0.5
  const auto r = net.solve(1);
  EXPECT_NEAR(r.response_time, 0.5, 1e-12);
  EXPECT_NEAR(r.throughput, 1.0 / 10.5, 1e-12);
  EXPECT_NEAR(r.little_check(), 1.0, 1e-9);
}

TEST(Mva, TwoCustomersExactSolution) {
  // N=2, Z=0, single exponential server, mean service 1: R(2) = 2, X = 1.
  ClosedNetwork net(0.0);
  net.add_station(make_queueing_station("s", 1.0));
  const auto r = net.solve(2);
  EXPECT_NEAR(r.response_time, 2.0, 1e-12);
  EXPECT_NEAR(r.throughput, 1.0, 1e-12);
}

TEST(Mva, LittlesLawHoldsForAllPopulations) {
  ClosedNetwork net(5.0);
  net.add_station(make_queueing_station("a", 10.0));
  net.add_station(make_multiserver_station("b", 4, 3.0, 300));
  for (int n : {1, 5, 20, 100, 300}) {
    const auto r = net.solve(n);
    EXPECT_NEAR(r.little_check(), static_cast<double>(n), 1e-6) << n;
  }
}

TEST(Mva, ThroughputBoundedByBottleneck) {
  ClosedNetwork net(1.0);
  net.add_station(make_queueing_station("bottleneck", 4.0));
  for (int n : {1, 10, 50, 200}) {
    EXPECT_LE(net.solve(n).throughput, 4.0 + 1e-9);
  }
  // And it approaches the bound under heavy population.
  EXPECT_GT(net.solve(200).throughput, 3.99);
}

TEST(Mva, ThroughputMonotoneInPopulation) {
  ClosedNetwork net(2.0);
  net.add_station(make_multiserver_station("s", 2, 1.5, 200));
  double prev = 0.0;
  for (int n = 1; n <= 200; n += 10) {
    const double x = net.solve(n).throughput;
    EXPECT_GE(x, prev - 1e-9);
    prev = x;
  }
}

TEST(Mva, ResponseTimeMonotoneInPopulation) {
  ClosedNetwork net(2.0);
  net.add_station(make_queueing_station("s", 5.0));
  double prev = 0.0;
  for (int n = 1; n <= 100; n += 5) {
    const double r = net.solve(n).response_time;
    EXPECT_GE(r, prev - 1e-9);
    prev = r;
  }
}

TEST(Mva, MultiserverBeatsSingleFatServerAtLowLoadEqualCapacity) {
  // c servers of rate mu vs one server of rate c*mu: same capacity, but
  // the fat server is strictly faster per job, so R_fat <= R_multi; the
  // multiserver still beats a SINGLE slow server of rate mu.
  ClosedNetwork multi(1.0);
  multi.add_station(make_multiserver_station("m", 4, 1.0, 100));
  ClosedNetwork slow(1.0);
  slow.add_station(make_queueing_station("s", 1.0));
  ClosedNetwork fat(1.0);
  fat.add_station(make_queueing_station("f", 4.0));
  const int n = 20;
  EXPECT_LT(multi.solve(n).response_time, slow.solve(n).response_time);
  EXPECT_LE(fat.solve(n).response_time,
            multi.solve(n).response_time + 1e-9);
}

TEST(Mva, UtilizationApproachesOneUnderSaturation) {
  ClosedNetwork net(0.5);
  net.add_station(make_queueing_station("s", 2.0));
  const auto r = net.solve(100);
  ASSERT_EQ(r.stations.size(), 1u);
  EXPECT_GT(r.stations[0].utilization, 0.999);
}

TEST(Mva, VisitRatioScalesResidence) {
  ClosedNetwork once(10.0);
  once.add_station(make_queueing_station("s", 100.0, 1.0));
  ClosedNetwork twice(10.0);
  twice.add_station(make_queueing_station("s", 100.0, 2.0));
  // At negligible load, residence time doubles with the visit ratio.
  EXPECT_NEAR(twice.solve(1).response_time,
              2.0 * once.solve(1).response_time, 1e-9);
}

TEST(Mva, ZeroPopulationIsEmptyResult) {
  ClosedNetwork net(1.0);
  net.add_station(make_queueing_station("s", 1.0));
  const auto r = net.solve(0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.0);
  EXPECT_DOUBLE_EQ(r.response_time, 0.0);
}

TEST(Mva, ThroughputCurveMatchesPerPopulationSolves) {
  ClosedNetwork net(0.0);
  net.add_station(make_multiserver_station("a", 3, 2.0, 50));
  net.add_station(make_queueing_station("b", 5.0));
  const auto curve = net.throughput_curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (int n : {1, 7, 25, 50}) {
    EXPECT_NEAR(curve[static_cast<std::size_t>(n - 1)],
                net.solve(n).throughput, 1e-9)
        << n;
  }
}

TEST(Mva, ThroughputCurveIsMonotoneForPsNetworks) {
  ClosedNetwork net(0.0);
  net.add_station(make_multiserver_station("a", 2, 1.0, 100));
  net.add_station(make_multiserver_station("b", 4, 1.5, 100));
  const auto curve = net.throughput_curve(100);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1] - 1e-9);
  }
}

TEST(Mva, FlowEquivalentAggregationIsExact) {
  // Solving delay + subnetwork directly must equal delay + FESC station
  // built from the subnetwork's throughput curve (exactness of
  // flow-equivalent aggregation in product-form networks).
  const int n = 60;
  ClosedNetwork direct(3.0);
  direct.add_station(make_queueing_station("a", 4.0));
  direct.add_station(make_multiserver_station("b", 2, 3.0, n));

  ClosedNetwork sub(0.0);
  sub.add_station(make_queueing_station("a", 4.0));
  sub.add_station(make_multiserver_station("b", 2, 3.0, n));
  Station fesc;
  fesc.name = "agg";
  fesc.rates = sub.throughput_curve(n);
  ClosedNetwork outer(3.0);
  outer.add_station(std::move(fesc));

  for (int pop : {1, 10, 30, 60}) {
    EXPECT_NEAR(outer.solve(pop).throughput, direct.solve(pop).throughput,
                1e-6)
        << pop;
  }
}

TEST(Mva, RejectsInvalidInputs) {
  EXPECT_THROW(ClosedNetwork(-1.0), std::invalid_argument);
  ClosedNetwork net(0.0);
  EXPECT_THROW(net.solve(1), std::invalid_argument);  // empty, zero think
  EXPECT_THROW(net.add_station(Station{"x", 1.0, {}}), std::invalid_argument);
  EXPECT_THROW(net.add_station(Station{"x", 1.0, {0.0}}),
               std::invalid_argument);
  EXPECT_THROW(net.add_station(Station{"x", -1.0, {1.0}}),
               std::invalid_argument);
  net.add_station(make_queueing_station("ok", 1.0));
  EXPECT_THROW(net.solve(-1), std::invalid_argument);
  EXPECT_THROW(make_queueing_station("bad", 0.0), std::invalid_argument);
  EXPECT_THROW(make_multiserver_station("bad", 0, 1.0, 10),
               std::invalid_argument);
  EXPECT_THROW(net.throughput_curve(0), std::invalid_argument);
}

// Regression for the contract migration: a station with a negative service
// demand (negative rate or visit ratio) must be rejected at add time --
// letting it through poisons the recursion with negative queue lengths,
// which the RAC_AUDIT checks in solve() would only catch in audit builds.
TEST(Mva, RejectsNegativeDemand) {
  ClosedNetwork net(1.0);
  EXPECT_THROW(net.add_station(Station{"neg-rate", 1.0, {-2.0}}),
               std::invalid_argument);
  EXPECT_THROW(net.add_station(Station{"neg-visit", -0.5, {2.0}}),
               std::invalid_argument);
  EXPECT_THROW(make_queueing_station("neg", -1.0), std::invalid_argument);
}

// In audit builds this solve additionally runs the finiteness /
// non-negativity / monotone-throughput RAC_AUDIT checks; in default builds
// it is a plain solve. Either way the numbers must be sane.
TEST(Mva, SolveInvariantsHoldOnHealthyNetwork) {
  ClosedNetwork net(2.0);
  net.add_station(make_multiserver_station("web", 4, 20.0, 64));
  net.add_station(make_queueing_station("db", 35.0, 0.8));
  const auto curve = net.throughput_curve(64);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i] + 1e-9, curve[i - 1]) << i;
  }
  const auto result = net.solve(64);
  EXPECT_GT(result.throughput, 0.0);
  for (const auto& sr : result.stations) {
    EXPECT_GE(sr.queue_length, 0.0) << sr.name;
    EXPECT_GE(sr.utilization, 0.0) << sr.name;
    EXPECT_LE(sr.utilization, 1.0 + 1e-9) << sr.name;
  }
}


TEST(Mva, ZeroPopulationIsDefinedAndAudited) {
  // Regression: solve(0) used to return zeroed per-station fields without
  // ever passing through the audit block. The empty system is now an
  // explicitly defined result: all fields finite, utilization exactly 0.
  ClosedNetwork net(2.0);
  net.add_station(make_queueing_station("web", 3.0));
  net.add_station(make_multiserver_station("app", 2, 1.5, 10));
  const auto r = net.solve(0);
  EXPECT_EQ(r.population, 0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.0);
  EXPECT_DOUBLE_EQ(r.response_time, 0.0);
  ASSERT_EQ(r.stations.size(), 2u);
  for (const auto& s : r.stations) {
    EXPECT_TRUE(std::isfinite(s.residence_time));
    EXPECT_DOUBLE_EQ(s.queue_length, 0.0);
    EXPECT_DOUBLE_EQ(s.utilization, 0.0);
  }
  EXPECT_DOUBLE_EQ(r.little_check(), 0.0);
}

TEST(Mva, IncrementalSolveIsBitIdenticalToFromScratch) {
  // Golden determinism sweep: one long-lived network absorbs a randomized
  // sequence of mutations (rate edits, think-time edits, station adds)
  // interleaved with solves at jumping populations, and every result must
  // be bitwise identical (EXPECT_EQ on doubles, no tolerance) to a fresh
  // network solving from scratch.
  util::Rng rng(20260808);
  const auto random_rates = [&rng] {
    std::vector<double> rates;
    const int len = rng.uniform_int(1, 8);
    for (int i = 0; i < len; ++i) rates.push_back(rng.uniform(0.2, 12.0));
    return rates;
  };

  double think = 1.0;
  std::vector<Station> spec;
  spec.push_back(Station{"s0", 1.0, random_rates()});
  ClosedNetwork cached(think);
  cached.add_station(spec[0]);

  const auto fresh = [&] {
    ClosedNetwork net(think);
    for (const auto& s : spec) net.add_station(s);
    return net;
  };

  for (int round = 0; round < 200; ++round) {
    switch (rng.uniform_int(0, 9)) {
      case 0:  // think-time edit
        think = rng.uniform(0.0, 4.0);
        cached.set_think_time(think);
        break;
      case 1: {  // rate-table edit
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(spec.size()) - 1));
        spec[i].rates = random_rates();
        cached.set_station_rates(i, spec[i].rates);
        break;
      }
      case 2:  // station add (bounded so pairs and the odd tail both occur)
        if (spec.size() < 5) {
          spec.push_back(Station{"s" + std::to_string(spec.size()),
                                 rng.uniform(0.5, 2.0), random_rates()});
          cached.add_station(spec.back());
        }
        break;
      default:
        break;  // no mutation: re-solve on warm scratch
    }

    const int population = rng.uniform_int(0, 60);
    ClosedNetwork scratch = fresh();
    if (population >= 1 && rng.bernoulli(0.3)) {
      const auto a = cached.throughput_curve(population);
      const auto b = scratch.throughput_curve(population);
      ASSERT_EQ(a.size(), b.size()) << "round " << round;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "round " << round << " X(" << i + 1 << ")";
      }
    }
    const auto a = cached.solve(population);
    const auto b = scratch.solve(population);
    EXPECT_EQ(a.throughput, b.throughput) << "round " << round;
    EXPECT_EQ(a.response_time, b.response_time) << "round " << round;
    ASSERT_EQ(a.stations.size(), b.stations.size());
    for (std::size_t s = 0; s < a.stations.size(); ++s) {
      EXPECT_EQ(a.stations[s].residence_time, b.stations[s].residence_time)
          << "round " << round << " station " << s;
      EXPECT_EQ(a.stations[s].queue_length, b.stations[s].queue_length)
          << "round " << round << " station " << s;
      EXPECT_EQ(a.stations[s].utilization, b.stations[s].utilization)
          << "round " << round << " station " << s;
    }
  }
}

}  // namespace
}  // namespace rac::queueing
