// Seeded mutation fuzzer over the five on-disk loaders: rac-qtable v2,
// rac-policy-library v1, rac-agent-snapshot v3, rac-checkpoint v2 and
// rac-fleet-checkpoint v3.
//
// Each format's saved text is mutated a fixed number of times from a fixed
// seed, by truncation, bit flips, token swaps, and numbers chosen to break
// a reader (huge counts, out-of-range integers, non-finite values). Every
// mutant must either load or throw std::runtime_error. Restore may also
// throw std::invalid_argument: the file is well formed but belongs to a
// differently configured agent. An accepted agent snapshot, run checkpoint
// or fleet checkpoint must then restore and run two more intervals without
// throwing; a loader that accepts a value no agent could hold fails here.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "core/library_io.hpp"
#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "core/snapshot.hpp"
#include "env/analytic_env.hpp"
#include "env/context.hpp"
#include "fault/fault_env.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "rl/serialization.hpp"
#include "util/lineio.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/dynamic.hpp"

namespace rac {
namespace {

// ---- the mutator -----------------------------------------------------------

struct Token {
  std::size_t begin = 0;
  std::size_t size = 0;
};

// The whitespace-separated tokens of `text`, and separately the lines
// that start with a label: the scalar fields, which a uniform pick would
// rarely reach among thousands of Q-table and experience rows.
struct Tokens {
  std::vector<Token> all;
  std::vector<std::vector<Token>> labelled_lines;
};

Tokens tokens_of(const std::string& text) {
  Tokens tokens;
  bool line_start = true;
  bool labelled = false;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      line_start = line_start || text[i] == '\n';
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const Token token{begin, i - begin};
    if (line_start) {
      labelled = std::isalpha(static_cast<unsigned char>(text[begin])) != 0;
      if (labelled) tokens.labelled_lines.emplace_back();
      line_start = false;
    }
    tokens.all.push_back(token);
    if (labelled) tokens.labelled_lines.back().push_back(token);
  }
  return tokens;
}

// Counts, indices and values a reader must not take at face value: one
// past a type's range, and a type's maximum, which a counter the run
// increments would overflow.
constexpr std::array<const char*, 16> kHostileNumbers = {
    "18446744073709551615", "9223372036854775808", "9223372036854775807",
    "1000000000000",        "2147483648",          "2147483647",
    "-2147483649",          "-1",                  "0",
    "nan",                  "inf",                 "-inf",
    "1.fffffffffffffp+1023", "-0",                 "1e308",
    "4.9e-324"};

template <typename Items>
const auto& any_of(const Items& items, util::Rng& rng) {
  return items[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(items.size()) - 1))];
}

// One to three edits, each at a token picked uniformly from the text or,
// half the time, from a labelled line picked uniformly: cut the text
// inside it, flip one bit of one of its bytes, swap it with another token,
// or replace it with a hostile number.
std::string mutate(std::string text, util::Rng& rng) {
  const int edits = rng.uniform_int(1, 3);
  for (int e = 0; e < edits; ++e) {
    const Tokens tokens = tokens_of(text);
    if (tokens.all.empty()) break;
    const auto pick = [&] {
      return tokens.labelled_lines.empty() || rng.bernoulli(0.5)
                 ? any_of(tokens.all, rng)
                 : any_of(any_of(tokens.labelled_lines, rng), rng);
    };
    const Token t = pick();
    switch (rng.uniform_int(0, 3)) {
      case 0:
        text.resize(t.begin + static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<int>(t.size))));
        break;
      case 1: {
        char& c = text[t.begin + static_cast<std::size_t>(rng.uniform_int(
                                     0, static_cast<int>(t.size) - 1))];
        c = static_cast<char>(c ^ (1 << rng.uniform_int(0, 6)));
        break;
      }
      case 2: {
        Token a = t;
        Token b = pick();
        if (b.begin < a.begin) std::swap(a, b);
        if (a.begin == b.begin) break;
        text = text.substr(0, a.begin) + text.substr(b.begin, b.size) +
               text.substr(a.begin + a.size, b.begin - a.begin - a.size) +
               text.substr(a.begin, a.size) + text.substr(b.begin + b.size);
        break;
      }
      default:
        text.replace(t.begin, t.size, any_of(kHostileNumbers, rng));
        break;
    }
  }
  return text;
}

// ---- what a mutant may do -------------------------------------------------

enum Outcome { kRejected, kWrongAgent, kAccepted, kNumOutcomes };

// Mutates `text` `count` times from `seed` and feeds each mutant to
// `outcome_of`, which must return an outcome; anything it throws fails the
// test. Records how often each outcome occurred.
void fuzz(const char* format, const std::string& text, int count,
          std::uint64_t seed,
          const std::function<Outcome(const std::string&)>& outcome_of) {
  util::Rng rng(seed);
  std::array<int, kNumOutcomes> outcomes{};
  for (int i = 0; i < count; ++i) {
    const std::string mutant = mutate(text, rng);
    try {
      ++outcomes[outcome_of(mutant)];
    } catch (const std::exception& e) {
      ADD_FAILURE() << format << " mutant " << i << " threw: " << e.what();
    }
  }
  // Not vacuous: some mutants are rejected and some get all the way.
  EXPECT_GT(outcomes[kRejected], 0) << format;
  EXPECT_GT(outcomes[kAccepted], 0) << format;
  ::testing::Test::RecordProperty("bytes", std::to_string(text.size()));
  ::testing::Test::RecordProperty("rejected",
                                  std::to_string(outcomes[kRejected]));
  ::testing::Test::RecordProperty("wrong_agent",
                                  std::to_string(outcomes[kWrongAgent]));
  ::testing::Test::RecordProperty("accepted",
                                  std::to_string(outcomes[kAccepted]));
}

// Runs `load` and maps the loader's std::runtime_error to a rejection.
template <typename Load>
bool loads(Load&& load) {
  try {
    load();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

// ---- the saved texts ------------------------------------------------------

const env::SystemContext kFirst = env::table2_context(1);
const env::SystemContext kSecond = env::table2_context(6);

// A two-policy library small enough that the header lines of every format
// draw a fair share of the mutations.
const core::InitialPolicyLibrary& small_library() {
  static const core::InitialPolicyLibrary library = [] {
    core::PolicyInitOptions init;
    init.coarse_levels = 3;
    init.offline_td = {0.1, 0.9, 0.1, 1e-3, 1, 1};
    env::AnalyticEnvOptions offline;
    offline.noise_sigma = 0.0;
    core::InitialPolicyLibrary built;
    for (const env::SystemContext& context : {kFirst, kSecond}) {
      env::AnalyticEnv environment(context, offline);
      built.add(core::learn_initial_policy(environment, init));
    }
    return built;
  }();
  return library;
}

// Every hardening option on, and a short retrain so tables stay small.
core::RacOptions agent_options() {
  core::RacOptions options;
  options.online_td = {0.1, 0.9, 0.1, 1e-3, 2, 2};
  options.violation.consecutive_limit = 3;
  options.robustness.clamp = true;
  options.robustness.median_of = 3;
  options.robustness.freeze_detect_after = 2;
  options.safe_fallback.enabled = true;
  options.safe_fallback.blowout_factor = 1.5;
  options.seed = 5;
  return options;
}

std::shared_ptr<const workload::TrafficModel> traffic() {
  auto model = std::make_shared<workload::TrafficModel>();
  model->add_diurnal({24.0, 0.3, 0.0});
  return model;
}

// The live system an agent runs against: drops, spikes and freezes over a
// diurnal day.
std::unique_ptr<env::Environment> live_env() {
  env::AnalyticEnvOptions options;
  options.noise_sigma = 0.1;
  options.seed = 9;
  auto analytic = std::make_unique<env::AnalyticEnv>(kFirst, options);
  analytic->set_traffic_model(traffic());
  fault::FaultyEnvOptions faults;
  faults.profile.drop_prob = 0.1;
  faults.profile.spike_prob = 0.1;
  faults.profile.freeze_prob = 0.2;
  faults.seed = 3;
  return std::make_unique<fault::FaultyEnv>(std::move(analytic), faults);
}

core::RunOptions run_options() {
  core::RunOptions run;
  run.robustness.enabled = true;
  return run;
}

const core::ContextSchedule kSchedule = {{0, kFirst}, {6, kSecond}};

// A run checkpoint after 12 intervals with a context switch at 6, and its
// agent state: a policy switch, a full median window, experience and a
// calibration average.
const core::RunCheckpoint& saved_run() {
  static const core::RunCheckpoint checkpoint = [] {
    const std::string path = ::testing::TempDir() + "/rac_fuzz_seed.rac";
    core::RacAgent agent(agent_options(), small_library(), 0);
    const auto environment = live_env();
    core::RunOptions run = run_options();
    run.checkpoint_every = 12;
    run.checkpoint_path = path;
    core::run_agent(*environment, agent, kSchedule, 12, run);
    core::RunCheckpoint loaded = core::load_checkpoint_file(path);
    std::remove(path.c_str());
    return loaded;
  }();
  return checkpoint;
}

std::string run_checkpoint_text() {
  std::ostringstream os;
  os << "rac-checkpoint v2\ncompleted "
     << util::format_u64(saved_run().completed_iterations) << "\ntraffic "
     << util::format_u64(saved_run().traffic_interval) << "\nagent_state "
     << util::format_u64(saved_run().agent_state.size()) << "\n"
     << saved_run().agent_state << "\nend\n";
  return os.str();
}

// Restores `snapshot` into a fresh agent and runs two more intervals.
Outcome restore_and_run(const core::AgentSnapshot& snapshot,
                        std::uint64_t traffic_interval) {
  core::RacAgent agent(agent_options(), small_library(), 0);
  try {
    agent.restore(snapshot);
  } catch (const std::invalid_argument&) {
    return kWrongAgent;
  }
  const auto environment = live_env();
  environment->seek_traffic(traffic_interval);
  core::run_agent(*environment, agent, kSchedule, 2, run_options());
  return kAccepted;
}

// ---- one test per loader --------------------------------------------------

TEST(LoaderFuzz, QTable) {
  std::ostringstream os;
  rl::save_qtable(os, small_library().at(0).table);
  fuzz("rac-qtable", os.str(), 300, 101, [](const std::string& text) {
    std::istringstream is(text);
    return loads([&] { rl::load_qtable(is); }) ? kAccepted : kRejected;
  });
}

// An accepted library must also be usable: every policy predicts a finite
// response at the default configuration.
TEST(LoaderFuzz, PolicyLibrary) {
  std::ostringstream os;
  core::save_library(os, small_library());
  fuzz("rac-policy-library", os.str(), 300, 102, [](const std::string& text) {
    std::istringstream is(text);
    core::InitialPolicyLibrary library;
    if (!loads([&] { library = core::load_library(is); })) return kRejected;
    for (std::size_t i = 0; i < library.size(); ++i) {
      const double response = library.at(i).predict_response_ms(
          config::Configuration::defaults());
      EXPECT_TRUE(std::isfinite(response))
          << "policy " << i << ": " << response;
    }
    return kAccepted;
  });
}

TEST(LoaderFuzz, AgentSnapshot) {
  std::istringstream original(saved_run().agent_state);
  const core::AgentState state = core::load_agent_snapshot(original).state;
  ASSERT_GE(state.policy_switches, 1);
  ASSERT_EQ(state.recent_responses.size(), 3u);
  ASSERT_FALSE(state.experience.empty());
  ASSERT_FALSE(state.calibration_log.empty());
  fuzz("rac-agent-snapshot", saved_run().agent_state, 400, 103,
       [](const std::string& text) {
         std::istringstream is(text);
         core::AgentSnapshot snapshot;
         if (!loads([&] { snapshot = core::load_agent_snapshot(is); })) {
           return kRejected;
         }
         return restore_and_run(snapshot, 0);
       });
}

TEST(LoaderFuzz, RunCheckpoint) {
  const std::string path = ::testing::TempDir() + "/rac_fuzz_checkpoint.rac";
  fuzz("rac-checkpoint", run_checkpoint_text(), 200, 104,
       [&path](const std::string& text) {
         util::atomic_write_file(path, text);
         core::RunCheckpoint checkpoint;
         core::AgentSnapshot snapshot;
         if (!loads([&] {
               checkpoint = core::load_checkpoint_file(path);
               std::istringstream is(checkpoint.agent_state);
               snapshot = core::load_agent_snapshot(is);
             })) {
           return kRejected;
         }
         return restore_and_run(snapshot, checkpoint.traffic_interval);
       });
  std::remove(path.c_str());
}

// Three tenants: one behind faults, one under a diurnal traffic model.
std::unique_ptr<fleet::FleetManager> small_fleet(util::ThreadPool& pool,
                                                 obs::Registry& registry) {
  std::vector<fleet::TenantSpec> specs(3);
  for (int i = 0; i < 3; ++i) {
    specs[static_cast<std::size_t>(i)].id = i;
    specs[static_cast<std::size_t>(i)].schedule = kSchedule;
  }
  fault::FaultProfile profile;
  profile.drop_prob = 0.1;
  profile.spike_prob = 0.1;
  profile.freeze_prob = 0.2;
  specs[1].fault_profile = profile;
  specs[2].traffic = traffic();
  fleet::FleetOptions options;
  options.shard_count = 1;
  options.retrain_every = 5;
  options.agent = agent_options();
  options.pool = &pool;
  options.registry = &registry;
  return std::make_unique<fleet::FleetManager>(std::move(specs), options,
                                               small_library());
}

// Checkpointed right after a retrain, so the tenants overlay the previous
// library generation and the file's stale-base block is fuzzed too.
TEST(LoaderFuzz, FleetCheckpoint) {
  util::ThreadPool pool(1);
  obs::Registry registry;
  std::ostringstream saved;
  {
    const auto fleet = small_fleet(pool, registry);
    fleet->run(10);
    fleet->save_checkpoint(saved);
  }
  ASSERT_NE(saved.str().find("\nstale_base "), std::string::npos);
  fuzz("rac-fleet-checkpoint", saved.str(), 120, 105,
       [&](const std::string& text) {
         const auto fleet = small_fleet(pool, registry);
         std::istringstream is(text);
         try {
           fleet->restore_checkpoint(is);
         } catch (const std::runtime_error&) {
           return kRejected;
         } catch (const std::invalid_argument&) {
           return kWrongAgent;
         }
         fleet->run(2);
         return kAccepted;
       });
}

}  // namespace
}  // namespace rac
