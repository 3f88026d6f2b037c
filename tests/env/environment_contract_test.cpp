// The env::Environment contract, checked once over every implementation:
// the analytic twin, the simulator, the fault decorator over each, and a
// stationary environment with no traffic cursor.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "config/configuration.hpp"
#include "env/analytic_env.hpp"
#include "env/sim_env.hpp"
#include "fault/fault_env.hpp"
#include "workload/dynamic.hpp"

namespace rac::env {
namespace {

using config::Configuration;
using workload::MixType;
using workload::TrafficModel;

const SystemContext kScheduled{MixType::kShopping, VmLevel::kLevel1};

std::shared_ptr<const TrafficModel> busy_model() {
  auto model = std::make_shared<TrafficModel>();
  model->add_diurnal({32.0, 0.3, 0.0})
      .add_flash_crowd({7, 0.05, 2, 3, 4, 2.0})
      .add_think_noise({11, 0.2});
  return model;
}

/// A stationary environment: no traffic cursor, no clone.
class CursorlessEnv final : public Environment {
 public:
  Measurement measure_interval(const Configuration& /*config*/) override {
    Measurement m;
    m.sample = {100.0, 50.0};
    return m;
  }
  void set_context(const SystemContext& c) override { ctx_ = c; }
  SystemContext context() const override { return ctx_; }

 private:
  SystemContext ctx_ = kScheduled;
};

std::unique_ptr<Environment> analytic() {
  AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  return std::make_unique<AnalyticEnv>(kScheduled, opt);
}

std::unique_ptr<Environment> sim() {
  SimEnvOptions opt;
  opt.num_clients = 60;
  opt.warmup_s = 5.0;
  opt.measure_s = 20.0;
  opt.seed = 3;
  return std::make_unique<SimEnv>(kScheduled, opt);
}

struct EnvCase {
  std::string name;
  /// Builds the environment; a fault decorator is configured by `faults`.
  std::function<std::unique_ptr<Environment>(const fault::FaultyEnvOptions&)>
      make;
  bool has_cursor = true;
  bool decorated = false;
  bool clonable = false;
};

// gtest prints parameters into test names; print the stable case name, not
// the bytes of the factory.
void PrintTo(const EnvCase& c, std::ostream* os) { *os << c.name; }

EnvCase decorated(std::string name,
                  std::function<std::unique_ptr<Environment>()> inner) {
  return {std::move(name),
          [inner](const fault::FaultyEnvOptions& faults) {
            return std::make_unique<fault::FaultyEnv>(inner(), faults);
          },
          true, true};
}

class EnvContract : public ::testing::TestWithParam<EnvCase> {
 protected:
  std::unique_ptr<Environment> make(
      const fault::FaultyEnvOptions& faults = {}) const {
    return GetParam().make(faults);
  }
  /// The environment that owns the cursor (the inner one when decorated).
  static Environment& owner(Environment& env) {
    auto* faulty = dynamic_cast<fault::FaultyEnv*>(&env);
    return faulty != nullptr ? faulty->inner() : env;
  }
};

TEST_P(EnvContract, InstallResetsAndSeekMovesTheCursor) {
  auto env = make();
  const Configuration c;
  if (!GetParam().has_cursor) {
    EXPECT_EQ(env->traffic_cursor(), nullptr);
    EXPECT_THROW(env->set_traffic_model(busy_model()), std::invalid_argument);
    env->set_traffic_model(nullptr);  // clearing is always allowed
    EXPECT_EQ(env->traffic_model(), nullptr);
    EXPECT_THROW(env->seek_traffic(1), std::invalid_argument);
    env->seek_traffic(0);
    EXPECT_EQ(env->traffic_interval(), 0u);
    return;
  }
  const auto model = busy_model();
  env->set_traffic_model(model);
  EXPECT_EQ(env->traffic_model(), model);
  EXPECT_EQ(owner(*env).traffic_model(), model);  // decorators forward
  for (int i = 0; i < 3; ++i) env->measure(c);
  EXPECT_EQ(env->traffic_interval(), 3u);
  env->seek_traffic(1);
  EXPECT_EQ(env->traffic_interval(), 1u);
  EXPECT_EQ(owner(*env).traffic_interval(), 1u);
  env->set_traffic_model(busy_model());
  EXPECT_EQ(env->traffic_interval(), 0u);
}

TEST_P(EnvContract, EachMeasurementAdvancesTheCursor) {
  auto env = make();
  const Configuration c;
  if (GetParam().has_cursor) env->set_traffic_model(busy_model());
  const std::uint64_t step = GetParam().has_cursor ? 1 : 0;
  EXPECT_GT(env->measure(c).response_ms, 0.0);
  EXPECT_EQ(env->traffic_interval(), step);
  // A context switch moves no cursor; the next measurement does.
  env->set_context({MixType::kOrdering, VmLevel::kLevel2});
  EXPECT_EQ(env->traffic_interval(), step);
  EXPECT_GT(env->measure(c).response_ms, 0.0);
  EXPECT_EQ(env->traffic_interval(), 2 * step);
}

TEST_P(EnvContract, CloneCarriesTheModelAndCursor) {
  auto env = make();
  const Configuration c;
  if (GetParam().has_cursor) env->set_traffic_model(busy_model());
  env->measure(c);
  env->measure(c);
  const auto clone = env->clone_with_seed(0);
  // Cloning is optional; offline policy initialization needs it, and only
  // the analytic twin offers it.
  ASSERT_EQ(clone != nullptr, GetParam().clonable);
  if (clone == nullptr) return;
  EXPECT_EQ(clone->traffic_model(), env->traffic_model());
  EXPECT_EQ(clone->traffic_interval(), env->traffic_interval());
  EXPECT_EQ(clone->context(), env->context());
  // Noiseless: the clone's stream continues bitwise.
  EXPECT_EQ(clone->measure(c).response_ms, env->measure(c).response_ms);
}

TEST_P(EnvContract, DropIsLostWithSentinelAndNote) {
  fault::FaultyEnvOptions faults;
  fault::FaultEpisode drop;
  drop.kind = fault::FaultKind::kDrop;
  drop.start_interval = 1;
  faults.schedule.push_back(drop);
  faults.timeout_sentinel = {-1.0, 0.0};
  const Configuration c;

  auto env = make(faults);
  const Measurement first = env->measure_interval(c);
  EXPECT_FALSE(first.lost);
  EXPECT_EQ(first.fault_note, "");
  EXPECT_GT(first.sample.response_ms, 0.0);
  const Measurement second = env->measure_interval(c);
  if (!GetParam().decorated) {  // nothing loses an undecorated interval
    EXPECT_FALSE(second.lost);
    EXPECT_EQ(second.fault_note, "");
    return;
  }
  EXPECT_TRUE(second.lost);
  EXPECT_EQ(second.fault_note, "drop");
  EXPECT_DOUBLE_EQ(second.sample.response_ms, -1.0);
  // The system still ran the interval: the truth is recorded.
  const auto& faulty = dynamic_cast<const fault::FaultyEnv&>(*env);
  ASSERT_EQ(faulty.true_history().size(), 2u);
  EXPECT_GT(faulty.true_history()[1].response_ms, 0.0);

  // measure() reports the same sentinel without the flag.
  auto plain = make(faults);
  plain->measure(c);
  EXPECT_DOUBLE_EQ(plain->measure(c).response_ms, -1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Envs, EnvContract,
    ::testing::Values(
        EnvCase{"Analytic",
                [](const fault::FaultyEnvOptions&) { return analytic(); },
                true, false, true},
        EnvCase{"Sim", [](const fault::FaultyEnvOptions&) { return sim(); }},
        decorated("FaultyAnalytic", analytic), decorated("FaultySim", sim),
        EnvCase{"Cursorless",
                [](const fault::FaultyEnvOptions&)
                    -> std::unique_ptr<Environment> {
                  return std::make_unique<CursorlessEnv>();
                },
                false}),
    [](const ::testing::TestParamInfo<EnvCase>& info) {
      return info.param.name;
    });

// The traffic target scales the configured population and rounds to at
// least one browser, so a zero-client environment would silently run one.
// Both environments reject it when they are built.
TEST(EnvConstruction, FewerThanOneClientIsRejected) {
  for (const int clients : {0, -1}) {
    AnalyticEnvOptions analytic_opt;
    analytic_opt.num_clients = clients;
    EXPECT_THROW(AnalyticEnv(kScheduled, analytic_opt), std::invalid_argument);
    SimEnvOptions sim_opt;
    sim_opt.num_clients = clients;
    EXPECT_THROW(SimEnv(kScheduled, sim_opt), std::invalid_argument);
  }
}

}  // namespace
}  // namespace rac::env
