// Micro-benchmarks (google-benchmark) for the building blocks whose cost
// bounds the management loop: MVA solves, the analytic environment
// evaluation, DES simulation throughput, Q-table operations, one policy
// prediction, batch TD retraining (of an empty table, and of a pre-trained
// library table under a closed-form and a fitted policy's reward), one
// agent checkpoint (serialize, then write the file), and the regression
// fit. Also carries the ablation benches
// for the design decisions called out in DESIGN.md section 5 (two model
// fidelities; sparse Q-table).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/space.hpp"
#include "harness.hpp"
#include "core/policy_init.hpp"
#include "core/rac_agent.hpp"
#include "core/snapshot.hpp"
#include "env/analytic_env.hpp"
#include "env/sim_env.hpp"
#include "queueing/mva.hpp"
#include "rl/td_learner.hpp"
#include "util/regression.hpp"
#include "util/rng.hpp"

namespace {

using namespace rac;

void BM_MvaSolve(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  queueing::ClosedNetwork net(10.0);
  net.add_station(queueing::make_multiserver_station("web", 2, 100.0, population));
  net.add_station(queueing::make_multiserver_station("app", 4, 15.0, population));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.solve(population));
  }
}
BENCHMARK(BM_MvaSolve)->Arg(100)->Arg(400)->Arg(1000);

void BM_MvaThroughputCurve(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  queueing::ClosedNetwork net(0.0);
  net.add_station(queueing::make_multiserver_station("web", 2, 100.0, population));
  net.add_station(queueing::make_multiserver_station("app", 4, 15.0, population));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.throughput_curve(population));
  }
}
BENCHMARK(BM_MvaThroughputCurve)->Arg(400);

// Design ablation: one analytic evaluation (the fast model twin) ...
void BM_AnalyticEvaluate(benchmark::State& state) {
  env::AnalyticEnvOptions opt;
  opt.noise_sigma = 0.0;
  env::AnalyticEnv e({workload::MixType::kShopping, env::VmLevel::kLevel1}, opt);
  const config::Configuration c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluate(c));
  }
}
BENCHMARK(BM_AnalyticEvaluate);

// ... vs one DES measurement interval (the ground-truth substrate). The
// ratio justifies running the RL sweeps on the analytic twin.
void BM_DesMeasurementInterval(benchmark::State& state) {
  tiersim::SystemParams params;
  tiersim::SimSetup setup;
  setup.num_clients = 200;
  setup.seed = 3;
  for (auto _ : state) {
    state.PauseTiming();
    tiersim::ThreeTierSystem sys(params, setup);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sys.run(10.0, 60.0));
  }
}
BENCHMARK(BM_DesMeasurementInterval)->Unit(benchmark::kMillisecond);

void BM_QTableLookup(benchmark::State& state) {
  rl::QTable table;
  util::Rng rng(1);
  std::vector<config::Configuration> configs;
  for (int i = 0; i < 10000; ++i) {
    configs.push_back(config::ConfigSpace::random_fine(rng));
    table.set_q(configs.back(), config::Action::keep(), rng.uniform());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.q(configs[i % configs.size()], config::Action::keep()));
    ++i;
  }
}
BENCHMARK(BM_QTableLookup);

// `experienced` states on a random walk from the default configuration.
std::vector<config::Configuration> experienced_states(int experienced,
                                                      util::Rng& rng) {
  std::vector<config::Configuration> states_list;
  config::Configuration c;
  for (int i = 0; i < experienced; ++i) {
    states_list.push_back(c);
    c = config::ConfigSpace::apply(
        c, config::Action(rng.uniform_int(0, config::kNumActions - 1)));
  }
  return states_list;
}

double max_clients_reward(const config::Configuration& s) {
  return -static_cast<double>(s.value(config::ParamId::kMaxClients)) / 600.0;
}

rl::TdParams retrain_params() {
  rl::TdParams params;
  params.max_sweeps = 40;
  params.trajectory_limit = 8;
  return params;
}

void BM_BatchRetrain(benchmark::State& state) {
  util::Rng rng(2);
  const auto states_list =
      experienced_states(static_cast<int>(state.range(0)), rng);
  const rl::RewardFn reward = max_clients_reward;
  const rl::TdParams params = retrain_params();
  for (auto _ : state) {
    rl::QTable table;
    benchmark::DoNotOptimize(
        rl::batch_train(table, states_list, reward, params, rng));
  }
}
BENCHMARK(BM_BatchRetrain)->Arg(30)->Arg(90)->Unit(benchmark::kMillisecond);

// Positive near the low-MaxClients end, as the policy reward (SLA - rt)/SLA
// is near a good configuration: the offline walks settle there instead of
// sweeping the space, so the library below has the size of a bench/e2e
// library table (~1.3*10^4 written states, ~10^5 rows).
double library_reward(const config::Configuration& s) {
  return 1.0 + max_clients_reward(s);
}

// The agent's shape: each interval retrains a table that offline training
// already filled -- every coarse-grid sample's trajectories, warm neighbor
// rows included -- not an empty one. A retrain's cost must follow the
// experienced states, not the table; BM_BatchRetrain above cannot show the
// difference. The library is trained once per process, outside the timed
// loop, with core::PolicyInitOptions' offline schedule.
const rl::QTable& pretrained_library() {
  static const rl::QTable library = [] {
    rl::QTable table;
    util::Rng rng(4);
    rl::batch_train(table, config::ConfigSpace().coarse_grid(),
                    library_reward, core::PolicyInitOptions{}.offline_td, rng);
    return table;
  }();
  return library;
}

// Retrains of the library table above from state.range(0) experienced
// states under `reward`.
void retrain_pretrained(benchmark::State& state, const rl::RewardFn& reward) {
  util::Rng rng(2);
  const auto states_list =
      experienced_states(static_cast<int>(state.range(0)), rng);
  const rl::TdParams params = retrain_params();
  // One untimed retrain first, as the agent's table has had by any later
  // interval: each timed copy already holds most rows its walk creates,
  // and the table's vectors have room to spare, so the loop times the
  // retrain rather than the table's own growth.
  rl::QTable table = pretrained_library();
  rl::batch_train(table, states_list, reward, params, rng);
  const rl::QTable retrained = table;
  for (auto _ : state) {
    state.PauseTiming();
    table = retrained;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        rl::batch_train(table, states_list, reward, params, rng));
  }
}

void BM_BatchRetrainPretrained(benchmark::State& state) {
  retrain_pretrained(state, library_reward);
}
BENCHMARK(BM_BatchRetrainPretrained)
    ->Arg(30)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond);

// A policy fitted by Algorithm 2 on the noiseless twin (context 1 at the
// default 4 coarse levels: a degree-3 surface). Only its surface is read
// here, so its offline TD runs one sweep.
const core::InitialPolicy& fitted_policy() {
  static const core::InitialPolicy policy = [] {
    env::AnalyticEnvOptions opt;
    opt.noise_sigma = 0.0;
    env::AnalyticEnv env({workload::MixType::kShopping, env::VmLevel::kLevel1},
                         opt);
    core::PolicyInitOptions init;
    init.offline_td.max_sweeps = 1;
    return core::learn_initial_policy(env, init);
  }();
  return policy;
}

// One policy prediction: the agent's retrain rewards every state it has
// not measured from one (Algorithm 2's regression surface).
void BM_PredictResponse(benchmark::State& state) {
  const core::InitialPolicy& policy = fitted_policy();
  util::Rng rng(6);
  std::vector<config::Configuration> configs;
  for (int i = 0; i < 256; ++i) {
    configs.push_back(config::ConfigSpace::random_fine(rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.predict_response_ms(configs[i++ % configs.size()]));
  }
}
BENCHMARK(BM_PredictResponse);

// BM_BatchRetrainPretrained with the agent's reward shape: every state is
// rewarded from a fitted policy's prediction, as RacAgent::retrain rewards
// the states it has not measured. The closed-form rewards above cannot
// show what a prediction costs.
void BM_BatchRetrainPolicyReward(benchmark::State& state) {
  const core::InitialPolicy& policy = fitted_policy();
  retrain_pretrained(state, [&policy](const config::Configuration& c) {
    return policy.predict_reward(c);
  });
}
BENCHMARK(BM_BatchRetrainPolicyReward)
    ->Arg(30)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond);

// An agent running the library table above, as it is right after a policy
// switch: ~1.3*10^4 written states among ~10^5 rows. Its checkpoint text
// is the size of a bench/e2e agent's (a few MB).
std::unique_ptr<core::RacAgent> library_agent() {
  core::InitialPolicy policy;
  policy.context = {workload::MixType::kShopping, env::VmLevel::kLevel1};
  policy.table = pretrained_library();
  core::InitialPolicyLibrary library;
  library.add(std::move(policy));
  return std::make_unique<core::RacAgent>(core::RacOptions{},
                                          std::move(library), 0);
}

// RacAgent::save_state into a fresh string stream, as run_agent takes one
// checkpoint.
void BM_SaveAgentState(benchmark::State& state) {
  const auto agent = library_agent();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    benchmark::DoNotOptimize(agent->save_state(os));
    benchmark::DoNotOptimize(os.view().data());
    benchmark::ClobberMemory();
    bytes = os.view().size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SaveAgentState)->Unit(benchmark::kMillisecond);

// write_checkpoint_file of that agent's text: framing, temp file, rename.
void BM_WriteCheckpoint(benchmark::State& state) {
  std::ostringstream os;
  library_agent()->save_state(os);
  core::RunCheckpoint checkpoint;
  checkpoint.completed_iterations = 10;
  checkpoint.agent_state = std::move(os).str();
  const std::string path =
      (std::filesystem::temp_directory_path() / "rac_bench_micro.checkpoint")
          .string();
  for (auto _ : state) {
    core::write_checkpoint_file(path, checkpoint);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(checkpoint.agent_state.size()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_WriteCheckpoint)->Unit(benchmark::kMillisecond);

void BM_QuadraticSurfaceFit(benchmark::State& state) {
  util::Rng rng(3);
  const std::size_t n = 257;
  std::vector<double> points;
  std::vector<double> ys;
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = config::ConfigSpace::random_fine(rng);
    const auto z = c.normalized_values();
    points.insert(points.end(), z.begin(), z.end());
    ys.push_back(rng.uniform(4.0, 9.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::QuadraticSurface::fit(
        points, config::kNumParams, ys, 1e-4, 3));
  }
}
BENCHMARK(BM_QuadraticSurfaceFit)->Unit(benchmark::kMillisecond);

void BM_PolicyInitialization(benchmark::State& state) {
  env::AnalyticEnvOptions opt;
  opt.seed = 7;
  for (auto _ : state) {
    env::AnalyticEnv env({workload::MixType::kShopping, env::VmLevel::kLevel1},
                         opt);
    core::PolicyInitOptions init;
    init.coarse_levels = 3;  // smaller budget for the micro-bench
    init.offline_td.max_sweeps = 60;
    benchmark::DoNotOptimize(core::learn_initial_policy(env, init));
  }
}
BENCHMARK(BM_PolicyInitialization)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

// Expanded BENCHMARK_MAIN with the harness banner first: banner() starts
// the report session, so RAC_BENCH_REPORT captures this binary's phase
// tree and process stats like every other bench target.
int main(int argc, char** argv) {
  rac::bench::banner("Micro-benchmarks",
                     "google-benchmark suite for the management-loop "
                     "building blocks");
  // RAC_BENCH_QUICK=1 shortens every benchmark's measurement window; an
  // explicit --benchmark_min_time on the command line still wins because
  // later flags override earlier ones.
  std::vector<char*> args(argv, argv + argc);
  static char quick_min_time[] = "--benchmark_min_time=0.01";
  if (rac::bench::quick()) args.insert(args.begin() + 1, quick_min_time);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
