// End-to-end benchmark driver: runs one workload once, in this process.
//
//   rac_e2e --workload W --seed S --out result.json [--trace spans.json]
//           [--smoke]
//
// A run is the workload's setup (offline library training, plus the fleet's
// construction) followed by its online phase: a fixed number of episodes,
// each a fresh environment and agent driven through the workload's schedule,
// run concurrently on the worker pool. Every online input is derived from
// --seed; episode k draws its own from derive_seed(seed, 1000 + k), so one
// run averages over many independent traffic, noise and fault scripts (the
// agents' online cost depends strongly on the path they take).
//
// Every layer is timed from outside, at public API boundaries:
//
//   * core::build_library, FleetManager construction and FleetManager::run(1);
//   * a ConfigAgent decorator around RacAgent. Its decide / observe /
//     save_state calls bracket the agent itself; the gap between decide
//     returning and observe starting is the environment's measurement
//     (FaultyEnv retries included); the gap after observe is the runner's
//     bookkeeping plus checkpoint writes.
//
// Layer counters are not added here: they are read from the registries the
// program already keeps (obs::default_registry() and the fleet's shard
// registries), as diffs between the start of the run, the end of setup and
// the end of the online phase.
//
// With --trace, every boundary above is also recorded as a span (id, parent,
// name, start, end, interval) in a vector reserved up front and written out
// when the run ends. Without it the driver takes the same clock readings but
// records no spans, so the two modes do the same work.
//
// The driver writes raw measurements only. bench/e2e/run.py repeats runs as
// separate processes, derives the metrics, checks correctness and compares
// run sets.
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "core/snapshot.hpp"
#include "env/analytic_env.hpp"
#include "env/context.hpp"
#include "env/sim_env.hpp"
#include "fault/fault_env.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "obs/process_stats.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/dynamic.hpp"

namespace {

using namespace rac;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum SpanName : std::int32_t {
  kWorkload,
  kSetup,
  kLibrary,
  kFleetConstruct,
  kOnline,
  kEpisode,
  kInterval,
  kDecide,
  kMeasure,
  kObserve,
  kOverhead,
  kSerialize,
  kFleetStep,
  kNumSpanNames
};

constexpr std::array<const char*, kNumSpanNames> kSpanNames = {
    "workload",
    "setup",
    "core.policy_init",
    "fleet.construct",
    "online",
    "episode",
    "interval",
    "core.rac.decide",
    "env.measure",
    "core.rac.observe",
    "core.runner.overhead",
    "core.checkpoint.serialize",
    "fleet.step"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int32_t parent = -1;
  std::int32_t name = 0;
  std::int32_t interval = -1;
};

// Spans of one run, in a vector reserved up front: recording a span is a
// store, never an allocation. A disabled log records nothing and hands out
// id -1, which close() ignores.
class SpanLog {
 public:
  SpanLog(bool enabled, std::size_t capacity) : enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity);
  }

  int open(SpanName name, int parent, std::int64_t start, int interval = -1) {
    if (!enabled_) return -1;
    if (spans_.size() == spans_.capacity()) {
      overflowed_ = true;
      return -1;
    }
    spans_.push_back(Span{start, -1, parent, name, interval});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, std::int64_t end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = end;
  }

  /// Append another log's spans; its roots become children of `parent`.
  void adopt(const SpanLog& other, int parent) {
    const auto offset = static_cast<std::int32_t>(spans_.size());
    overflowed_ = overflowed_ || other.overflowed_;
    for (Span span : other.spans_) {
      if (spans_.size() == spans_.capacity()) {
        overflowed_ = true;
        return;
      }
      span.parent = span.parent < 0 ? parent : span.parent + offset;
      spans_.push_back(span);
    }
  }

  bool enabled() const noexcept { return enabled_; }
  bool overflowed() const noexcept { return overflowed_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  bool overflowed_ = false;
  std::vector<Span> spans_;
};

// The work tracing adds inside the online loop: both modes take the same
// clock readings, so the difference is recording `count` spans. Measured by
// recording as many again into a scratch log of the same size.
double span_recording_s(std::size_t count) {
  SpanLog scratch(true, count);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    scratch.close(scratch.open(kInterval, -1, start, static_cast<int>(i)),
                  start + 1);
  }
  const std::int64_t end = now_ns();
  // Publish what was stored, so the recording cannot be optimized away.
  static std::atomic<std::int64_t> sink{0};
  for (const Span& span : scratch.spans()) {
    sink.fetch_add(span.end_ns, std::memory_order_relaxed);
  }
  return ns_to_s(end - start);
}

// ---------------------------------------------------------------------------
// The agent decorator
// ---------------------------------------------------------------------------

// Spans one management interval records: interval, decide, measure,
// observe, overhead and at most one checkpoint serialization.
constexpr std::size_t kSpansPerInterval = 6;

// Times the wrapped agent's calls and attributes the gaps between them to
// the environment and to the runner. The runner calls decide, measures, then
// calls observe (skipped when a measurement is lost for good), then does its
// bookkeeping and any checkpoint write, which calls save_state.
class TimedAgent final : public core::ConfigAgent {
 public:
  TimedAgent(core::RacAgent& inner, SpanLog& spans, int parent,
             const fault::FaultyEnv* faulty)
      : inner_(inner), spans_(spans), parent_(parent), faulty_(faulty) {}

  config::Configuration decide() override {
    const std::int64_t start = now_ns();
    close_interval(start);
    if (faulty_ != nullptr) {
      attempt_marks_.push_back(faulty_->true_history().size());
    }
    interval_span_ = spans_.open(kInterval, parent_, start, index_);
    const int span = spans_.open(kDecide, interval_span_, start, index_);
    config::Configuration next = inner_.decide();
    const std::int64_t end = now_ns();
    spans_.close(span, end);
    measure_span_ = spans_.open(kMeasure, interval_span_, end, index_);
    phase_ = Phase::kMeasuring;
    return next;
  }

  void observe(const config::Configuration& applied,
               const env::PerfSample& sample) override {
    const std::int64_t start = now_ns();
    spans_.close(measure_span_, start);
    const int span = spans_.open(kObserve, interval_span_, start, index_);
    inner_.observe(applied, sample);
    const std::int64_t end = now_ns();
    spans_.close(span, end);
    overhead_span_ = spans_.open(kOverhead, interval_span_, end, index_);
    phase_ = Phase::kAfterObserve;
  }

  std::string name() const override { return inner_.name(); }

  void annotate(obs::TraceEvent& event) const override {
    inner_.annotate(event);
  }

  bool save_state(std::ostream& os) const override {
    const int span = spans_.open(kSerialize, overhead_span_, now_ns(), index_);
    const bool saved = inner_.save_state(os);
    spans_.close(span, now_ns());
    return saved;
  }

  /// Close the last interval; call when run_agent returns.
  void finish() { close_interval(now_ns()); }

  /// Per interval of this episode: did observe run (1) or was the
  /// measurement lost (0)?
  const std::vector<char>& observed() const noexcept { return observed_; }
  /// FaultyEnv measurement attempts made before each interval started.
  const std::vector<std::size_t>& attempt_marks() const noexcept {
    return attempt_marks_;
  }

 private:
  enum class Phase { kIdle, kMeasuring, kAfterObserve };

  void close_interval(std::int64_t at) {
    switch (phase_) {
      case Phase::kIdle:
        return;
      case Phase::kMeasuring:  // the measurement was lost: no observe
        observed_.push_back(0);
        spans_.close(measure_span_, at);
        break;
      case Phase::kAfterObserve:
        observed_.push_back(1);
        spans_.close(overhead_span_, at);
        break;
    }
    spans_.close(interval_span_, at);
    ++index_;
    phase_ = Phase::kIdle;
  }

  core::RacAgent& inner_;
  SpanLog& spans_;
  int parent_;
  const fault::FaultyEnv* faulty_;
  std::vector<char> observed_;
  std::vector<std::size_t> attempt_marks_;
  Phase phase_ = Phase::kIdle;
  int index_ = 0;
  int interval_span_ = -1;
  int measure_span_ = -1;
  int overhead_span_ = -1;
};

// ---------------------------------------------------------------------------
// Registry readings
// ---------------------------------------------------------------------------

// Counters by name, histograms as "<name>.sum" and "<name>.count".
using Flat = std::map<std::string, double>;

void add_snapshot(Flat& flat, const obs::MetricsSnapshot& snapshot) {
  for (const obs::CounterSample& c : snapshot.counters) {
    flat[c.name] += static_cast<double>(c.value);
  }
  for (const obs::HistogramSample& h : snapshot.histograms) {
    flat[h.name + ".sum"] += h.sum;
    flat[h.name + ".count"] += static_cast<double>(h.count);
  }
}

Flat registry_reading(const fleet::FleetManager* fleet) {
  Flat flat;
  add_snapshot(flat, obs::default_registry().snapshot());
  if (fleet != nullptr) add_snapshot(flat, fleet->shard_metrics());
  return flat;
}

Flat difference(const Flat& after, const Flat& before) {
  Flat out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const double delta = value - (it == before.end() ? 0.0 : it->second);
    if (delta != 0) out[name] = delta;
  }
  return out;
}

double histogram_sum(const obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  const obs::HistogramSample* h = snapshot.histogram(name);
  return h == nullptr ? 0.0 : h->sum;
}

// CPU time of every thread of the process so far.
double process_cpu_s() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages = 0;
  long long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

// One online episode. Quality is kept as raw sums so episodes pool exactly.
struct Episode {
  double loop_s = 0.0;  // the management loop alone, construction excluded
  long long requested = 0;  // management intervals (tenant-intervals)
  long long completed = 0;
  long long sla_hits = 0;
  long long delivered = 0;
  long long lost = 0;
  double response_sum_ms = 0.0;  // over delivered intervals
  double settle_intervals = std::nan("");  // NaN: not defined here
  bool outputs_valid = true;  // every delivered response finite and > 0
  long long checkpoint_completed = -1;
  std::uint64_t digest = 0;
};

struct Result {
  double setup_s = 0.0;
  double online_s = 0.0;
  double setup_cpu_s = 0.0;
  double online_cpu_s = 0.0;
  std::size_t contexts_trained = 0;
  std::size_t library_size = 0;
  double setup_rss_mb = 0.0;
  Flat setup_counters;
  Flat online_counters;
  std::vector<Episode> episodes;
  double fleet_build_s = 0.0;
  double fleet_bytes_per_tenant = 0.0;
  std::vector<double> fleet_step_ms;
  std::vector<double> fleet_retrain_step;  // 1 where a step retrained
  std::vector<double> fleet_reconfig_us;   // per step, per tenant
};

class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t trace_digest(const core::AgentTrace& trace) {
  Fnv fnv;
  for (const core::IterationRecord& record : trace.records) {
    for (const int v : record.configuration.values()) fnv.add(v);
    fnv.add(record.response_ms);
  }
  return fnv.value();
}

// Mean over context segments of the intervals until the response settles
// (AgentTrace::settled_iteration, window 5, tolerance 0.25); a segment that
// never settles counts as its full length.
double mean_settle(const std::vector<double>& responses,
                   const std::vector<int>& boundaries) {
  core::AgentTrace series;
  for (const double rt : responses) {
    core::IterationRecord record;
    record.response_ms = rt;
    series.records.push_back(record);
  }
  double total = 0.0;
  for (std::size_t s = 0; s + 1 < boundaries.size(); ++s) {
    const int from = boundaries[s];
    const int to = boundaries[s + 1];
    const int settled = series.settled_iteration(from, to, 5, 0.25);
    total += settled < 0 ? to - from : settled - from;
  }
  return total / static_cast<double>(boundaries.size() - 1);
}

// SLA hits and response sum over a per-interval series; an interval whose
// measurement was lost counts as an SLA miss and adds no response.
void score(const std::vector<double>& responses,
           const std::vector<char>& delivered, double sla_ms, Episode& e) {
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (delivered[i] == 0) {
      ++e.lost;
      continue;
    }
    const double rt = responses[i];
    if (!(std::isfinite(rt) && rt > 0.0)) e.outputs_valid = false;
    ++e.delivered;
    e.response_sum_ms += rt;
    if (rt <= sla_ms) ++e.sla_hits;
  }
}

std::vector<double> responses_of(const core::AgentTrace& trace) {
  std::vector<double> out;
  out.reserve(trace.records.size());
  for (const core::IterationRecord& r : trace.records) {
    out.push_back(r.response_ms);
  }
  return out;
}

// Marks the run's phases: the workload root and setup spans open at
// construction; begin_online closes setup, end_online closes the run. Each
// boundary also reads the registries so counters split into setup and online.
class Stages {
 public:
  Stages(SpanLog& spans, Result& result)
      : spans_(spans),
        result_(result),
        start_(now_ns()),
        start_cpu_s_(process_cpu_s()),
        root_(spans.open(kWorkload, -1, start_)),
        setup_(spans.open(kSetup, root_, start_)),
        at_start_(registry_reading(nullptr)) {}

  int setup_span() const noexcept { return setup_; }
  int online_span() const noexcept { return online_; }

  void begin_online(const fleet::FleetManager* fleet) {
    at_setup_ = registry_reading(fleet);
    result_.setup_counters = difference(at_setup_, at_start_);
    result_.setup_rss_mb = static_cast<double>(obs::peak_rss_bytes()) / kMiB;
    online_start_ = now_ns();
    online_start_cpu_s_ = process_cpu_s();
    spans_.close(setup_, online_start_);
    result_.setup_s = ns_to_s(online_start_ - start_);
    result_.setup_cpu_s = online_start_cpu_s_ - start_cpu_s_;
    online_ = spans_.open(kOnline, root_, online_start_);
  }

  void end_online(const fleet::FleetManager* fleet) {
    const std::int64_t end = now_ns();
    spans_.close(online_, end);
    spans_.close(root_, end);
    result_.online_s = ns_to_s(end - online_start_);
    result_.online_cpu_s = process_cpu_s() - online_start_cpu_s_;
    result_.online_counters = difference(registry_reading(fleet), at_setup_);
  }

 private:
  SpanLog& spans_;
  Result& result_;
  std::int64_t start_;
  double start_cpu_s_;
  int root_;
  int setup_;
  int online_ = -1;
  std::int64_t online_start_ = 0;
  double online_start_cpu_s_ = 0.0;
  Flat at_start_;
  Flat at_setup_;
};

core::InitialPolicyLibrary timed_library(
    SpanLog& spans, int parent, const std::vector<env::SystemContext>& contexts,
    const std::function<std::unique_ptr<env::Environment>(
        const env::SystemContext&)>& make_env,
    const core::PolicyInitOptions& init, Result& result) {
  const int span = spans.open(kLibrary, parent, now_ns());
  core::InitialPolicyLibrary library =
      core::build_library(contexts, make_env, init);
  spans.close(span, now_ns());
  result.contexts_trained += contexts.size();
  result.library_size += library.size();
  return library;
}

// One episode of a single-agent workload: its own environment, agent and
// spans. Episodes run concurrently, so nothing here is shared except
// read-only inputs (the library, the schedule).
struct EpisodeSlot {
  Episode episode;
  SpanLog spans;
};

// Runs `count` episodes concurrently on the shared pool, then merges their
// results and spans in episode order, so the output does not depend on how
// the pool scheduled them.
void run_episodes(int count, SpanLog& spans, int parent, Result& result,
                  const std::function<Episode(int, SpanLog&)>& run_one,
                  std::size_t spans_per_episode) {
  std::vector<EpisodeSlot> slots;
  slots.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    slots.push_back({{}, SpanLog(spans.enabled(), spans_per_episode)});
  }
  obs::shared_pool().parallel_for(slots.size(), [&](std::size_t k) {
    slots[k].episode = run_one(static_cast<int>(k), slots[k].spans);
  });
  for (EpisodeSlot& slot : slots) {
    result.episodes.push_back(slot.episode);
    spans.adopt(slot.spans, parent);
  }
}

// Drive one agent through `schedule` behind the timing decorator.
struct EpisodeRun {
  core::AgentTrace trace;
  std::vector<char> observed;
  std::vector<std::size_t> attempt_marks;
  Episode episode;
};

EpisodeRun run_agent_timed(SpanLog& spans, core::RacAgent& agent,
                           env::Environment& env,
                           const fault::FaultyEnv* faulty,
                           const core::ContextSchedule& schedule,
                           int intervals, const core::RunOptions& options,
                           int episode) {
  const std::int64_t start = now_ns();
  const int root = spans.open(kEpisode, -1, start, episode);
  TimedAgent timed(agent, spans, root, faulty);
  EpisodeRun run;
  run.trace = core::run_agent(env, timed, schedule, intervals, options);
  timed.finish();
  const std::int64_t end = now_ns();
  spans.close(root, end);
  run.episode.loop_s = ns_to_s(end - start);
  run.episode.requested = intervals;
  run.episode.completed = static_cast<long long>(run.trace.records.size());
  run.episode.digest = trace_digest(run.trace);
  run.observed = timed.observed();
  run.attempt_marks = timed.attempt_marks();
  return run;
}

std::uint64_t env_seed_for(std::uint64_t base, const env::SystemContext& c) {
  return util::derive_seed(base, static_cast<std::uint64_t>(c.mix) * 8 +
                                     static_cast<std::uint64_t>(c.level));
}

// Seed streams. The offline traces a library trains on are a fixed input,
// drawn from kSetupSeed, so every seed sets up the same work. Everything
// the system meets online -- measurement noise, traffic, faults, tenants --
// derives from --seed, each episode from its own base. The agents keep
// their default exploration seed: it is program configuration, not input.
enum Stream : std::uint64_t {
  kOfflineEnv = 1,
  kOfflineTd = 2,
  kOnlineEnv = 3,
  kFlash = 4,
  kThink = 5,
  kFault = 6,
  kFleet = 7,
};

constexpr std::uint64_t kSetupSeed = 7;

std::uint64_t stream(std::uint64_t base, Stream s) {
  return util::derive_seed(base, s);
}

std::uint64_t episode_base(std::uint64_t seed, int episode) {
  return util::derive_seed(seed, 1000 + static_cast<std::uint64_t>(episode));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string out;
  std::string trace;
  bool smoke = false;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// onboard: train an initial policy for each of the six Table-2 contexts
// (256 coarse samples each, every one a full MVA pass), then run the paper's
// Fig-5 schedule (contexts 1 -> 2 -> 3, 30 intervals each) at 400 clients.
// Setup-dominated. The SLA sits inside the range context 3 can reach at 400
// clients (about 1.3-1.9 s; contexts 1 and 2 stay below 0.5 s), so SLA
// attainment measures how fast and how well the agent tunes the heavy
// context; at 1 s every context-3 interval would miss whatever it decides.
Result onboard(const Options& o, SpanLog& spans) {
  constexpr double kSlaMs = 1500.0;
  const int train_clients = o.smoke ? 150 : 400;
  const int segment = o.smoke ? 8 : 30;
  const int episodes = o.smoke ? 2 : 24;
  Result r;
  Stages stages(spans, r);

  std::vector<env::SystemContext> contexts;
  for (int c = 1; c <= 6; ++c) contexts.push_back(env::table2_context(c));
  core::PolicyInitOptions init;
  init.seed = stream(kSetupSeed, kOfflineTd);
  if (o.smoke) init.coarse_levels = 3;
  const std::uint64_t offline_seed = stream(kSetupSeed, kOfflineEnv);
  const core::InitialPolicyLibrary library = timed_library(
      spans, stages.setup_span(), contexts,
      [&](const env::SystemContext& ctx) {
        env::AnalyticEnvOptions offline;
        offline.num_clients = train_clients;
        offline.seed = env_seed_for(offline_seed, ctx);
        return std::make_unique<env::AnalyticEnv>(ctx, offline);
      },
      init, r);

  const core::ContextSchedule schedule = {{0, contexts[0]},
                                          {segment, contexts[1]},
                                          {2 * segment, contexts[2]}};
  const int intervals = 3 * segment;
  stages.begin_online(nullptr);
  run_episodes(
      episodes, spans, stages.online_span(), r,
      [&](int k, SpanLog& log) {
        const std::uint64_t base = episode_base(o.seed, k);
        env::AnalyticEnvOptions live;
        live.num_clients = 400;
        live.seed = stream(base, kOnlineEnv);
        env::AnalyticEnv environment(contexts[0], live);
        core::RacOptions agent_options;
        agent_options.sla.reference_response_ms = kSlaMs;
        core::RacAgent agent(agent_options, library, 0);
        EpisodeRun run = run_agent_timed(log, agent, environment, nullptr,
                                         schedule, intervals,
                                         core::RunOptions{}, k);
        const std::vector<double> responses = responses_of(run.trace);
        score(responses, run.observed, kSlaMs, run.episode);
        run.episode.settle_intervals =
            mean_settle(responses, {0, segment, 2 * segment, intervals});
        return run.episode;
      },
      kSpansPerInterval * static_cast<std::size_t>(intervals) + 1);
  stages.end_online(nullptr);
  return r;
}

// traffic-day: agents through one diurnal day each, with flash crowds, a
// midday shopping -> browsing drift and think-time noise. The online loop
// dominates: one MVA measurement at ~700 clients plus a batch retrain per
// interval.
Result traffic_day(const Options& o, SpanLog& spans) {
  constexpr int kDay = 96;
  const int intervals = o.smoke ? 48 : kDay;
  const int episodes = o.smoke ? 2 : 16;
  constexpr double kSlaMs = 600.0;
  const env::SystemContext shopping{workload::MixType::kShopping,
                                    env::VmLevel::kLevel1};
  const env::SystemContext browsing{workload::MixType::kBrowsing,
                                    env::VmLevel::kLevel1};
  const int peak_clients = o.smoke ? 300 : 1050;
  const int nominal_clients = o.smoke ? 200 : 700;
  Result r;
  Stages stages(spans, r);

  // The shopping policy is trained at the provisioned flash-crowd peak, the
  // browsing policy at the nominal level the drift ends in.
  core::PolicyInitOptions init;
  init.seed = stream(kSetupSeed, kOfflineTd);
  if (o.smoke) init.coarse_levels = 3;
  const core::InitialPolicyLibrary library = timed_library(
      spans, stages.setup_span(), {shopping, browsing},
      [&](const env::SystemContext& ctx) {
        env::AnalyticEnvOptions offline;
        offline.noise_sigma = 0.0;
        offline.num_clients = ctx.mix == workload::MixType::kShopping
                                  ? peak_clients
                                  : nominal_clients;
        return std::make_unique<env::AnalyticEnv>(ctx, offline);
      },
      init, r);

  stages.begin_online(nullptr);
  run_episodes(
      episodes, spans, stages.online_span(), r,
      [&](int k, SpanLog& log) {
        const std::uint64_t base = episode_base(o.seed, k);
        workload::DiurnalParams diurnal;
        diurnal.period_intervals = kDay;
        diurnal.amplitude = 0.22;
        diurnal.phase_intervals = 0.75 * kDay;  // start at the night trough
        workload::FlashCrowdParams flash;
        flash.seed = stream(base, kFlash);
        flash.onset_prob = 0.01;
        flash.peak_scale = 1.19;
        workload::MixDriftParams drift;
        drift.from = workload::MixType::kShopping;
        drift.to = workload::MixType::kBrowsing;
        drift.duration_intervals = intervals / 2;
        drift.start_interval = intervals / 4;
        workload::ThinkNoiseParams think;
        think.seed = stream(base, kThink);
        think.sigma = 0.08;
        auto model = std::make_shared<workload::TrafficModel>();
        model->add_diurnal(diurnal)
            .add_flash_crowd(flash)
            .add_mix_drift(drift)
            .add_think_noise(think);

        env::AnalyticEnvOptions live;
        live.num_clients = nominal_clients;
        live.seed = stream(base, kOnlineEnv);
        env::AnalyticEnv environment(shopping, live);
        environment.set_traffic_model(model);
        core::RacOptions agent_options;
        agent_options.sla.reference_response_ms = kSlaMs;
        core::RacAgent agent(agent_options, library, 0);
        EpisodeRun run = run_agent_timed(log, agent, environment, nullptr,
                                         {{0, shopping}}, intervals,
                                         core::RunOptions{}, k);
        score(responses_of(run.trace), run.observed, kSlaMs, run.episode);
        return run.episode;
      },
      kSpansPerInterval * static_cast<std::size_t>(intervals) + 1);
  stages.end_online(nullptr);
  return r;
}

// fleet-256: FleetManager over many light tenants with two context switches,
// cross-tenant retraining and a faulted slice. The parallel control plane:
// MVA is cheap at 150 clients, so the agent, fleet and registry layers
// dominate. One episode: the tenants themselves are the independent inputs.
Result fleet_workload(const Options& o, SpanLog& spans) {
  const int tenants = o.smoke ? 32 : 256;
  const int intervals = o.smoke ? 12 : 48;
  const int switch_every = intervals / 3;
  const env::SystemContext first = env::table2_context(1);
  const env::SystemContext second = env::table2_context(2);
  Result r;
  Stages stages(spans, r);

  env::AnalyticEnvOptions tenant_env;
  tenant_env.num_clients = 150;
  tenant_env.fixed_point_iterations = 3;
  core::PolicyInitOptions init;
  init.seed = stream(kSetupSeed, kOfflineTd);
  init.coarse_levels = 3;
  init.offline_td.trajectory_limit = 6;
  init.offline_td.max_sweeps = 40;
  const core::InitialPolicyLibrary library = timed_library(
      spans, stages.setup_span(), {first, second},
      [&](const env::SystemContext& ctx) {
        env::AnalyticEnvOptions offline = tenant_env;
        offline.noise_sigma = 0.0;
        return std::make_unique<env::AnalyticEnv>(ctx, offline);
      },
      init, r);

  std::vector<fleet::TenantSpec> specs(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    fleet::TenantSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.id = i;
    const env::SystemContext& start = i % 2 == 0 ? first : second;
    const env::SystemContext& other = i % 2 == 0 ? second : first;
    spec.schedule = {{0, start},
                     {switch_every, other},
                     {2 * switch_every, start}};
    if (i % 16 == 5) {
      fault::FaultProfile profile;
      profile.drop_prob = 0.05;
      profile.spike_prob = 0.05;
      spec.fault_profile = profile;
    }
  }
  fleet::FleetOptions options;
  options.shard_count = 64;
  options.seed = stream(o.seed, kFleet);
  options.fault_seed = stream(o.seed, kFault);
  options.retrain_every = switch_every;
  options.env = tenant_env;
  options.agent.online_td.trajectory_limit = 4;
  options.agent.online_td.max_sweeps = 6;
  options.agent.sla.reference_response_ms = 250.0;
  options.agent.violation.consecutive_limit = 2;
  options.agent.violation.threshold = 0.15;

  const double rss_before = current_rss_bytes();
  const std::int64_t build_start = now_ns();
  const int build_span =
      spans.open(kFleetConstruct, stages.setup_span(), build_start);
  fleet::FleetManager manager(std::move(specs), options, library);
  const std::int64_t build_end = now_ns();
  spans.close(build_span, build_end);
  r.fleet_build_s = ns_to_s(build_end - build_start);

  stages.begin_online(&manager);
  // Per-step agent compute, read from the tenants' own decide (select_us)
  // and retrain (retrain_us) histograms: the fleet builds its agents
  // internally, so no decorator can wrap them.
  const auto agent_us = [&manager] {
    const obs::MetricsSnapshot shard = manager.shard_metrics();
    return histogram_sum(shard, "core.rac.select_us") +
           histogram_sum(shard, "core.rac.retrain_us");
  };
  Episode e;
  double agent_before = agent_us();
  for (int step = 0; step < intervals; ++step) {
    const std::int64_t start = now_ns();
    const int span = spans.open(kFleetStep, stages.online_span(), start, step);
    manager.run(1);
    const std::int64_t end = now_ns();
    spans.close(span, end);
    e.loop_s += ns_to_s(end - start);
    r.fleet_step_ms.push_back(ns_to_us(end - start) * 1e-3);
    r.fleet_retrain_step.push_back((step + 1) % switch_every == 0 ? 1 : 0);
    const double agent_after = agent_us();
    r.fleet_reconfig_us.push_back((agent_after - agent_before) / tenants);
    agent_before = agent_after;
  }
  stages.end_online(&manager);
  r.fleet_bytes_per_tenant = (current_rss_bytes() - rss_before) / tenants;

  // Score from outside. A dropped measurement reports the 0 ms timeout
  // sentinel, which TenantStats counts as an SLA hit and folds into the
  // response sum; the shard drop counter puts those intervals back as
  // misses with no response.
  const auto drops = r.online_counters.find("core.fault.drops");
  e.lost = drops == r.online_counters.end()
               ? 0
               : static_cast<long long>(drops->second);
  e.requested = static_cast<long long>(tenants) * intervals;
  long long measured = 0;
  Fnv fnv;
  for (std::size_t t = 0; t < manager.tenant_count(); ++t) {
    const fleet::TenantStats& s = manager.stats(t);
    e.completed += s.iterations;
    e.sla_hits += s.sla_hits;
    e.response_sum_ms += s.response_sum_ms;
    measured += s.measured_iterations;
    if (s.iterations != intervals || !std::isfinite(s.response_sum_ms) ||
        !(s.response_sum_ms > 0.0)) {
      e.outputs_valid = false;
    }
    fnv.add(s.iterations);
    fnv.add(s.sla_hits);
    fnv.add(s.response_sum_ms);
    fnv.add(s.measured_iterations);
    fnv.add(s.policy_switches);
  }
  const fleet::FleetReport report = manager.report();
  fnv.add(report.iterations);
  fnv.add(report.sla_attainment);
  fnv.add(report.mean_response_ms);
  fnv.add(report.policy_switches);
  fnv.add(report.retrain_rounds);
  e.digest = fnv.value();
  e.sla_hits -= e.lost;
  e.delivered = measured - e.lost;
  r.episodes.push_back(e);
  return r;
}

// des-faults: hardened agents on the discrete-event simulator behind an
// injected-fault layer, with periodic checkpoints. No online MVA; the
// measurement is fallible and retried, the agent's robustness paths are
// live, and every tenth interval serializes and writes a snapshot.
Result des_faults(const Options& o, SpanLog& spans) {
  const int intervals = o.smoke ? 30 : 120;
  const int period = o.smoke ? 10 : 40;
  const int episodes = o.smoke ? 2 : 24;
  const std::array<env::SystemContext, 3> cycle = {
      env::table2_context(1), env::table2_context(2), env::table2_context(6)};
  Result r;
  Stages stages(spans, r);

  core::PolicyInitOptions init;
  init.seed = stream(kSetupSeed, kOfflineTd);
  if (o.smoke) init.coarse_levels = 3;
  const std::uint64_t offline_seed = stream(kSetupSeed, kOfflineEnv);
  const core::InitialPolicyLibrary library = timed_library(
      spans, stages.setup_span(), {cycle.begin(), cycle.end()},
      [&](const env::SystemContext& ctx) {
        env::AnalyticEnvOptions offline;
        offline.num_clients = 400;
        offline.seed = env_seed_for(offline_seed, ctx);
        return std::make_unique<env::AnalyticEnv>(ctx, offline);
      },
      init, r);

  core::ContextSchedule schedule;
  std::vector<int> boundaries;
  for (int start = 0; start < intervals; start += period) {
    schedule.push_back(
        {start, cycle[static_cast<std::size_t>(start / period) % cycle.size()]});
    boundaries.push_back(start);
  }
  boundaries.push_back(intervals);

  stages.begin_online(nullptr);
  run_episodes(
      episodes, spans, stages.online_span(), r,
      [&](int k, SpanLog& log) {
        const std::uint64_t base = episode_base(o.seed, k);
        env::SimEnvOptions sim;
        sim.num_clients = 400;
        sim.warmup_s = 20.0;
        sim.measure_s = 60.0;
        sim.seed = stream(base, kOnlineEnv);
        fault::FaultyEnvOptions faults;
        faults.profile.drop_prob = 0.05;
        faults.profile.spike_prob = 0.05;
        faults.profile.freeze_prob = 0.03;
        faults.profile.reconfig_fail_prob = 0.03;
        faults.seed = stream(base, kFault);
        fault::FaultyEnv environment(
            std::make_unique<env::SimEnv>(cycle[0], sim), faults);
        core::RacOptions agent_options;
        agent_options.robustness.clamp = true;
        agent_options.robustness.median_of = 3;
        agent_options.robustness.freeze_detect_after = 2;
        agent_options.safe_fallback.enabled = true;
        agent_options.safe_fallback.blowout_factor = 1.5;
        core::RacAgent agent(agent_options, library, 0);
        core::RunOptions run_options;
        run_options.robustness.enabled = true;
        run_options.robustness.max_retries = 4;
        run_options.checkpoint_every = 10;
        run_options.checkpoint_path =
            o.out + ".checkpoint" + std::to_string(k);

        EpisodeRun run = run_agent_timed(log, agent, environment, &environment,
                                         schedule, intervals, run_options, k);
        run.episode.checkpoint_completed = static_cast<long long>(
            core::load_checkpoint_file(run_options.checkpoint_path)
                .completed_iterations);
        std::remove(run_options.checkpoint_path.c_str());

        // Score on what the system actually did: the ground-truth sample of
        // each interval's final measurement attempt.
        const std::vector<env::PerfSample>& truth = environment.true_history();
        const std::vector<std::size_t>& marks = run.attempt_marks;
        std::vector<double> true_rt;
        for (std::size_t i = 0; i < marks.size(); ++i) {
          const std::size_t next =
              i + 1 < marks.size() ? marks[i + 1] : truth.size();
          true_rt.push_back(next > marks[i] ? truth[next - 1].response_ms
                                            : std::nan(""));
        }
        score(true_rt, run.observed, agent_options.sla.reference_response_ms,
              run.episode);
        run.episode.settle_intervals = mean_settle(true_rt, boundaries);
        return run.episode;
      },
      kSpansPerInterval * static_cast<std::size_t>(intervals) + 1);
  stages.end_online(nullptr);
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 64> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf.data(), end);
}

std::string num(long long v) { return std::to_string(v); }

std::string boolean(bool v) { return v ? "true" : "false"; }

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += num(values[i]);
  }
  return out + "]";
}

// Minimal ordered JSON object builder (values arrive already encoded).
class Object {
 public:
  Object& add(std::string_view key, const std::string& encoded) {
    body_ += body_.empty() ? "{" : ",";
    body_ += quoted(key) + ":" + encoded;
    return *this;
  }
  std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

std::string flat_json(const Flat& flat) {
  Object o;
  for (const auto& [name, value] : flat) o.add(name, num(value));
  return o.str();
}

std::string episode_json(const Episode& e) {
  Object o;
  o.add("loop_s", num(e.loop_s))
      .add("requested", num(e.requested))
      .add("completed", num(e.completed))
      .add("sla_hits", num(e.sla_hits))
      .add("delivered", num(e.delivered))
      .add("lost", num(e.lost))
      .add("response_sum_ms", num(e.response_sum_ms))
      .add("settle_intervals", num(e.settle_intervals))
      .add("outputs_valid", boolean(e.outputs_valid))
      .add("checkpoint_completed", num(e.checkpoint_completed))
      .add("digest", quoted(std::to_string(e.digest)));
  return o.str();
}

std::string result_json(const Options& o, const Result& r,
                        const SpanLog& spans, bool traced) {
  std::string episodes = "[";
  for (std::size_t i = 0; i < r.episodes.size(); ++i) {
    episodes += (i > 0 ? "," : "") + episode_json(r.episodes[i]);
  }
  episodes += "]";
  Object fleet;
  fleet.add("build_s", num(r.fleet_build_s))
      .add("bytes_per_tenant", num(r.fleet_bytes_per_tenant))
      .add("step_ms", list(r.fleet_step_ms))
      .add("retrain_step", list(r.fleet_retrain_step))
      .add("reconfig_us", list(r.fleet_reconfig_us));
  Object build;
  build.add("compiler", quoted(RAC_E2E_COMPILER))
      .add("build_type", quoted(RAC_E2E_BUILD_TYPE));
  Object out;
  out.add("schema", quoted("rac-e2e-result v1"))
      .add("workload", quoted(o.workload))
      .add("seed", std::to_string(o.seed))
      .add("traced", boolean(traced))
      .add("spans_overflowed", boolean(spans.overflowed()))
      .add("span_recording_s",
           num(traced ? span_recording_s(spans.spans().size()) : 0.0))
      .add("threads", std::to_string(obs::shared_pool().size()))
      .add("build", build.str())
      .add("setup_s", num(r.setup_s))
      .add("online_s", num(r.online_s))
      .add("setup_cpu_s", num(r.setup_cpu_s))
      .add("online_cpu_s", num(r.online_cpu_s))
      .add("contexts_trained", std::to_string(r.contexts_trained))
      .add("library_size", std::to_string(r.library_size))
      .add("setup_rss_mb", num(r.setup_rss_mb))
      .add("peak_rss_mb",
           num(static_cast<double>(obs::peak_rss_bytes()) / kMiB))
      .add("episodes", episodes)
      .add("fleet", fleet.str())
      .add("setup_counters", flat_json(r.setup_counters))
      .add("online_counters", flat_json(r.online_counters));
  return out.str();
}

// Spans as [start_ns, end_ns, parent, name, interval] rows, times relative
// to the first span's start.
std::string spans_json(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string names = "[";
  for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
    names += (i > 0 ? "," : "") + quoted(kSpanNames[i]);
  }
  names += "]";
  std::string rows = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) rows += ",";
    rows += "[" + std::to_string(s.start_ns - origin) + "," +
            std::to_string(s.end_ns < 0 ? -1 : s.end_ns - origin) + "," +
            std::to_string(s.parent) + "," + std::to_string(s.name) + "," +
            std::to_string(s.interval) + "]";
  }
  rows += "]";
  Object out;
  out.add("names", names).add("spans", rows);
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text << "\n";
  os.close();
  if (!os) throw std::runtime_error("cannot write " + path);
}

std::uint64_t parse_seed(std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument("--seed must be a non-negative integer");
  }
  return value;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(arg) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = parse_seed(value());
      have_seed = true;
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--trace") {
      o.trace = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  if (o.workload.empty() || !have_seed || o.out.empty()) {
    throw std::invalid_argument(
        "usage: rac_e2e --workload W --seed S --out FILE [--trace FILE] "
        "[--smoke]");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const bool traced = !o.trace.empty();
    SpanLog spans(traced, traced ? std::size_t{1} << 18 : 0);
    Result result;
    if (o.workload == "onboard") {
      result = onboard(o, spans);
    } else if (o.workload == "traffic-day") {
      result = traffic_day(o, spans);
    } else if (o.workload == "fleet-256") {
      result = fleet_workload(o, spans);
    } else if (o.workload == "des-faults") {
      result = des_faults(o, spans);
    } else {
      throw std::invalid_argument("unknown workload " + o.workload);
    }
    write_file(o.out, result_json(o, result, spans, traced));
    if (traced) write_file(o.trace, spans_json(spans));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rac_e2e: " << e.what() << "\n";
    return 1;
  }
}
