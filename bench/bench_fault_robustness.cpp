// Fault-robustness acceptance bench: hardened vs unhardened RAC agents
// under each injected fault class.
//
// Both agents run the same management loop over the same fault script
// (identical FaultyEnv seed + profile) and are scored on the GROUND TRUTH
// performance recorded by the injector -- what the system actually did --
// not on the lied-about reported samples. The hardened agent enables the
// PR-5 degradation knobs (measurement retries + hold-last, reward clamp,
// median-of-3 ingestion, freeze detection, safe fallback); the unhardened
// agent is the paper-exact loop. Each class aggregates several independent
// (run seed, fault seed) repeats.
//
// CHECK: for every fault class the hardened agent's mean true reward must
// be >= the unhardened agent's, and with all faults disabled the FaultyEnv
// must be bitwise transparent (decorated run == bare run).
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/rac_agent.hpp"
#include "core/reward.hpp"
#include "fault/fault_env.hpp"
#include "harness.hpp"

namespace {

using namespace rac;

constexpr int kIterations = 70;
// The run replays the paper's adaptation setup (Fig. 10): the context
// switches mid-run, so measurement faults strike while the agent must
// relearn -- a stationary easy run would let the unhardened agent coast on
// its converged configuration and hide the damage.
constexpr int kSwitchIteration = 35;
// Scoring runs over a fixed wall-clock window of TRUE intervals: it starts
// after the initial warm-up transient (both agents descend from the
// Table-1 defaults identically) and is capped so an agent that spends
// extra real intervals on measurement retries is compared over the same
// elapsed system time, not over a longer history.
constexpr std::size_t kScoreFrom = 10;
constexpr std::size_t kScoreTo = kIterations;  // per run
constexpr std::uint64_t kRunSeed = 510;
constexpr std::uint64_t kFaultSeed = 77;

core::RacOptions agent_options(bool hardened, std::uint64_t seed) {
  core::RacOptions opt;
  opt.seed = seed;
  if (hardened) {
    opt.robustness.clamp = true;
    opt.robustness.floor = -5.0;
    opt.robustness.median_of = 3;
    opt.robustness.freeze_detect_after = 2;
    opt.safe_fallback.enabled = true;
    opt.safe_fallback.after_blowouts = 3;
    opt.safe_fallback.blowout_factor = 1.5;
  }
  return opt;
}

core::RunOptions run_options(bool hardened) {
  core::RunOptions options;
  options.robustness.enabled = hardened;
  options.robustness.max_retries = 2;
  return options;
}

struct ClassSpec {
  std::string name;
  fault::FaultProfile profile;
  fault::FaultSchedule schedule;
  env::PerfSample timeout_sentinel{};
};

struct ClassResult {
  double mean_true_reward = 0.0;
  double mean_true_rt = 0.0;
  std::size_t intervals = 0;
};

ClassResult run_one(const core::ContextSchedule& schedule,
                    const core::InitialPolicyLibrary& library,
                    const ClassSpec& spec, bool hardened,
                    std::uint64_t run_seed, std::uint64_t fault_seed) {
  fault::FaultyEnvOptions fopt;
  fopt.profile = spec.profile;
  fopt.schedule = spec.schedule;
  fopt.timeout_sentinel = spec.timeout_sentinel;
  fopt.seed = fault_seed;
  fault::FaultyEnv env(bench::make_env(schedule.front().context, run_seed),
                       fopt);

  core::RacAgent agent(agent_options(hardened, run_seed), library, 0);
  core::RunOptions options = run_options(hardened);
  options.sink = &bench::trace_sink();
  core::run_agent(env, agent, schedule, kIterations, options);

  const core::SlaSpec sla{};
  ClassResult result;
  double reward_sum = 0.0;
  double rt_sum = 0.0;
  const std::size_t total =
      std::min(env.true_history().size(), kScoreTo);
  for (std::size_t i = kScoreFrom; i < total; ++i) {
    const env::PerfSample& s = env.true_history()[i];
    reward_sum += core::reward_from_response(sla, s.response_ms);
    rt_sum += s.response_ms;
  }
  result.intervals = total > kScoreFrom ? total - kScoreFrom : 0;
  if (result.intervals > 0) {
    const double n = static_cast<double>(result.intervals);
    result.mean_true_reward = reward_sum / n;
    result.mean_true_rt = rt_sum / n;
  }
  return result;
}

bool traces_identical(const core::AgentTrace& a, const core::AgentTrace& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    if (ra.iteration != rb.iteration ||
        ra.response_ms != rb.response_ms ||
        ra.throughput_rps != rb.throughput_rps ||
        ra.configuration.values() != rb.configuration.values()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace rac;
  bench::banner("Fault robustness",
                "hardened vs unhardened agents per injected fault class");
  bench::set_report_seed(kRunSeed);

  // Per-class scores aggregate over a few independent (run seed, fault
  // seed) pairs so the hardened-vs-unhardened comparison is not hostage to
  // one lucky exploration path. RAC_BENCH_QUICK keeps a single repeat (and
  // trains with fewer sweeps): the run is then a determinism probe, not an
  // acceptance measurement, so quick-mode exit codes are tracked but only
  // gated against the quick-mode baseline.
  const int repeats = bench::scaled(3, 1);

  const auto ctx = env::table2_context(1);
  const auto switched_ctx = env::table2_context(3);
  // Surges flap to the weak post-switch context: the truth of a surge
  // interval is equally bad for both agents (same script), so the class
  // scores only how each agent REACTS to the transient outliers.
  const auto surge_ctx = switched_ctx;
  const core::ContextSchedule schedule = {{0, ctx},
                                          {kSwitchIteration, switched_ctx}};
  core::InitialPolicyLibrary library;
  for (const auto& c : {ctx, switched_ctx}) {
    env::AnalyticEnv offline_env(c, bench::default_env_options(7));
    core::PolicyInitOptions init;
    init.offline_td.max_sweeps = bench::scaled(80, 40);
    library.add(core::learn_initial_policy(offline_env, init));
  }

  // Transparency: a no-fault FaultyEnv must be invisible -- the decorated
  // run reproduces the bare run bit for bit.
  bool transparent = false;
  {
    core::RacAgent bare_agent(agent_options(false, kRunSeed), library, 0);
    auto bare_env = bench::make_env(ctx, kRunSeed);
    const auto bare =
        core::run_agent(*bare_env, bare_agent, {}, kIterations, {});

    core::RacAgent wrapped_agent(agent_options(false, kRunSeed), library, 0);
    fault::FaultyEnv wrapped(bench::make_env(ctx, kRunSeed), {});
    const auto decorated =
        core::run_agent(wrapped, wrapped_agent, {}, kIterations, {});
    transparent = traces_identical(bare, decorated);
  }

  std::vector<ClassSpec> classes;
  classes.push_back({"none", {}, {}});
  {
    ClassSpec c;
    c.name = "drop";
    c.profile.drop_prob = 0.25;
    // A naive monitor reports a lost interval as the timeout it waited
    // for; the unhardened loop ingests it as a 60-second "measurement".
    c.timeout_sentinel = {60000.0, 0.0};
    classes.push_back(c);
  }
  {
    ClassSpec c;
    c.name = "spike";
    c.profile.spike_prob = 0.12;
    c.profile.spike_multiplier = 40.0;
    classes.push_back(c);
  }
  {
    // A stuck sensor stays stuck: one long scheduled outage rather than
    // per-interval coin flips (an isolated one-interval freeze is invisible
    // to any detector -- it is just a repeated sample).
    ClassSpec c;
    c.name = "freeze";
    // The monitor glitches once (a spiked reading) and then wedges on that
    // glitched value: the paper-exact loop ingests 14 copies of a
    // catastrophic stale sample, while the hardened agent clamps the first
    // and freeze-detects the rest after two repeats.
    fault::FaultEpisode glitch;
    glitch.kind = fault::FaultKind::kSpike;
    glitch.start_interval = 11;
    glitch.duration = 1;
    glitch.magnitude = 40.0;
    c.schedule.push_back(glitch);
    fault::FaultEpisode outage;
    outage.kind = fault::FaultKind::kFreeze;
    outage.start_interval = 12;
    outage.duration = 14;
    c.schedule.push_back(outage);
    classes.push_back(c);
  }
  {
    ClassSpec c;
    c.name = "reconfig";
    c.profile.reconfig_fail_prob = 0.20;
    classes.push_back(c);
  }
  {
    ClassSpec c;
    c.name = "surge";
    c.profile.surge_prob = 0.15;
    c.profile.surge_context = surge_ctx;  // transient flaps to the weak VM
    classes.push_back(c);
  }

  util::TextTable table({"fault class", "agent", "mean true reward",
                         "mean true rt (ms)", "intervals"});
  struct Gap {
    std::string name;
    double hardened = 0.0;
    double unhardened = 0.0;
  };
  std::vector<Gap> gaps;
  for (const ClassSpec& spec : classes) {
    ClassResult sum[2];  // [0] unhardened, [1] hardened
    for (int rep = 0; rep < repeats; ++rep) {
      const std::uint64_t run_seed = kRunSeed + static_cast<std::uint64_t>(rep);
      const std::uint64_t fault_seed =
          kFaultSeed + static_cast<std::uint64_t>(rep);
      for (int h = 0; h < 2; ++h) {
        const ClassResult r =
            run_one(schedule, library, spec, h == 1, run_seed, fault_seed);
        sum[h].mean_true_reward += r.mean_true_reward / repeats;
        sum[h].mean_true_rt += r.mean_true_rt / repeats;
        sum[h].intervals += r.intervals;
      }
    }
    for (int h = 0; h < 2; ++h) {
      table.add_row({spec.name, h == 1 ? "hardened" : "unhardened",
                     util::fmt(sum[h].mean_true_reward, 4),
                     util::fmt(sum[h].mean_true_rt, 1),
                     std::to_string(sum[h].intervals)});
    }
    if (spec.name != "none") {
      gaps.push_back(
          {spec.name, sum[1].mean_true_reward, sum[0].mean_true_reward});
    }
  }
  std::cout << table.str() << "\nCSV:\n" << table.csv();

  bench::report_metrics({"core.fault.", "core.rac.", "core.violation."});

  bool pass = transparent;
  std::cout << "\nCHECK: no-fault FaultyEnv transparent (bitwise) : "
            << (transparent ? "PASS" : "FAIL") << "\n";
  for (const Gap& g : gaps) {
    const bool ok = g.hardened >= g.unhardened;
    // Quick mode runs one repeat over shortened horizons -- far too few
    // samples for the hardened-vs-unhardened comparison to be a gate.
    // Quick runs probe determinism (trace digest) and transparency only;
    // the statistical claim is gated by the full-size run.
    if (!bench::quick()) pass = pass && ok;
    std::cout << "CHECK: hardened >= unhardened mean true reward ["
              << g.name << "] : " << util::fmt(g.hardened, 4) << " vs "
              << util::fmt(g.unhardened, 4) << " : "
              << (ok ? "PASS" : bench::quick() ? "FAIL (ungated: quick)"
                                               : "FAIL")
              << "\n";
  }

  bench::paper_note(
      "a hardened agent keeps tuning through monitoring/actuation faults "
      "that poison the paper-exact loop (Section 4.3's premise taken to "
      "its production conclusion)",
      pass ? "all fault classes: hardened mean true reward >= unhardened"
           : "REGRESSION: see FAIL lines above");
  return pass ? 0 : 1;
}
