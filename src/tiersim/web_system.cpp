#include "tiersim/web_system.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/contracts.hpp"
#include "workload/dynamic.hpp"

namespace rac::tiersim {

namespace {
using config::Configuration;
using config::ParamId;

constexpr double kMsPerSecond = 1000.0;

/// Largest-remainder apportionment of `n` browsers to the mixes:
/// deterministic (ties break toward the lower enum index), exact for
/// one-hot weights, and off by at most one browser per mix otherwise.
std::array<int, workload::kNumMixes> apportion_browsers(
    int n, const std::array<double, workload::kNumMixes>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  std::array<int, workload::kNumMixes> counts{};
  std::array<double, workload::kNumMixes> remainders{};
  int assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double share = static_cast<double>(n) * weights[i] / total;
    counts[i] = static_cast<int>(std::floor(share));
    remainders[i] = share - static_cast<double>(counts[i]);
    assigned += counts[i];
  }
  while (assigned < n) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < weights.size(); ++i) {
      if (remainders[i] > remainders[best]) best = i;
    }
    ++counts[best];
    remainders[best] = -1.0;
    ++assigned;
  }
  return counts;
}
}  // namespace

struct ThreeTierSystem::Impl {
  // ---- immutable setup ----------------------------------------------------
  SystemParams P;
  workload::TrafficTarget traffic;
  VmSpec web_vm;
  VmSpec app_vm;
  int num_clients;
  obs::Registry* registry;  // nullptr -> process default, resolved per use

  // ---- live configuration --------------------------------------------------
  Configuration cfg;

  // ---- simulation infrastructure -------------------------------------------
  EventQueue q;
  util::Rng rng;
  PsResource web_cpu;
  PsResource app_cpu;
  double web_swap_factor = 1.0;
  double app_swap_factor = 1.0;

  // ---- one in-flight request ------------------------------------------------
  struct Request {
    int browser = -1;
    const workload::InteractionSpec* spec = nullptr;
    double issued_at = 0.0;
    double accept_enqueued_at = 0.0;
    double app_enqueued_at = 0.0;
    double accept_wait_s = 0.0;
    double app_wait_s = 0.0;
    bool reused_connection = false;
    bool rebuilt_session = false;
    bool spawned_thread = false;
    bool counted_as_writer = false;
    bool new_session = false;
    // Database demand computed by the app phase, parked here so the app
    // completion lambda captures only [this, req] -- a third capture would
    // push std::function past its small-buffer size and heap-allocate on
    // every request.
    double pending_db_ms = 0.0;
  };

  // ---- per-browser state ----------------------------------------------------
  struct Browser {
    workload::SessionGenerator gen;
    workload::BrowserStep next_step{};
    bool has_connection = false;
    EventHandle keepalive_timer;
    bool session_live = false;
    double session_last_use = 0.0;

    explicit Browser(workload::SessionGenerator g) : gen(std::move(g)) {}
  };
  std::vector<Browser> browsers;

  // Request arena: all Request objects are owned here; completed requests
  // go on a free list for reuse, and in-flight ones are reclaimed when the
  // simulator is destroyed.
  std::vector<std::unique_ptr<Request>> request_arena;
  std::vector<Request*> request_free_list;

  Request* alloc_request() {
    if (!request_free_list.empty()) {
      Request* req = request_free_list.back();
      request_free_list.pop_back();
      *req = Request{};
      return req;
    }
    request_arena.push_back(
        std::make_unique<Request>());  // rac-analyze: allow(hot-path-alloc) arena growth, amortized by the free list
    return request_arena.back().get();
  }

  void free_request(Request* req) { request_free_list.push_back(req); }

  // ---- web tier (Apache prefork) --------------------------------------------
  int web_total = 0;      // live worker processes
  int web_busy = 0;       // serving a request
  int web_ka_held = 0;    // parked on an idle keep-alive connection
  int web_forking = 0;    // forked, not yet serving
  std::deque<Request*> accept_queue;

  // ---- app tier (Tomcat) ------------------------------------------------------
  int app_total = 0;  // live threads
  int app_busy = 0;
  std::deque<Request*> app_queue;

  // ---- database (MySQL, co-located on the app VM) ----------------------------
  int concurrent_writers = 0;
  double db_buffer_mb = 0.0;
  double db_miss_mult = 1.0;
  double db_working_set_mb = 0.0;

  // ---- measurement ------------------------------------------------------------
  bool measuring = false;
  std::vector<double> response_samples_ms;
  util::RunningStats accept_wait_ms;
  util::RunningStats app_wait_ms;
  std::uint64_t completed = 0;
  std::uint64_t reused = 0;
  std::uint64_t session_requests = 0;
  std::uint64_t session_rebuilds = 0;
  std::uint64_t forks = 0;
  util::RunningStats web_pool_size;
  util::RunningStats app_pool_size;
  util::RunningStats buffer_pool_mb;

  Impl(const SystemParams& params, const SimSetup& setup)
      : P(params),
        traffic(setup.traffic),
        web_vm(setup.web_vm),
        app_vm(setup.app_vm),
        num_clients(workload::scaled_population(setup.num_clients,
                                                setup.traffic)),
        registry(setup.registry),
        cfg(setup.configuration),
        rng(setup.seed),
        web_cpu(q, setup.web_vm.vcpus,
                [this](int n) {
                  return (1.0 + P.web_concurrency_ovh * n) * web_swap_factor;
                }),
        app_cpu(q, setup.app_vm.vcpus, [this](int n) {
          return (1.0 + P.app_concurrency_ovh * n) * app_swap_factor;
        }) {
    if (setup.num_clients < 1) {
      throw std::invalid_argument("ThreeTierSystem: need at least one client");
    }
    RAC_EXPECT(traffic.think_scale > 0.0, "SimSetup: think_scale must be > 0");
    web_total = std::min(P.initial_workers, cfg.value(ParamId::kMaxClients));
    app_total = std::min(P.initial_threads, cfg.value(ParamId::kMaxThreads));
    // Blending checks the weights (non-negative, positive mass) before
    // they apportion the browsers.
    db_working_set_mb = working_set_mb();

    // Browsers are built in enum-order blocks per mix quota; under a
    // one-hot target every browser gets that mix with the same split
    // sequence as a single-mix population.
    const auto counts = apportion_browsers(num_clients, traffic.mix_weights);
    browsers.reserve(static_cast<std::size_t>(num_clients));
    for (std::size_t m = 0; m < counts.size(); ++m) {
      for (int i = 0; i < counts[m]; ++i) {
        browsers.emplace_back(workload::SessionGenerator(
            workload::kAllMixes[m], rng.split(), traffic.think_scale));
      }
    }
    update_memory_model();
    for (int i = 0; i < num_clients; ++i) schedule_browser(i);
    schedule_maintenance();
  }

  // ---- workload-derived quantities ------------------------------------------

  double working_set_mb() const {
    const auto stats = workload::blend_mix_stats(traffic.mix_weights);
    const double scaled_db = stats.db_demand_ms * P.demand_scale_db;
    return P.db_working_set_mb * scaled_db / P.db_ws_reference_ms;
  }

  // ---- browser loop -----------------------------------------------------------

  void schedule_browser(int b) {
    auto& browser = browsers[static_cast<std::size_t>(b)];
    browser.next_step = browser.gen.next();
    q.schedule_in(browser.next_step.think_time_s, [this, b] { issue_request(b); });
  }

  void issue_request(int b) {
    auto& browser = browsers[static_cast<std::size_t>(b)];
    Request* req = alloc_request();
    req->browser = b;
    req->spec = &workload::interaction(browser.next_step.interaction);
    req->issued_at = q.now();
    req->new_session = browser.next_step.new_session;

    if (browser.next_step.new_session) {
      // A fresh visit: the old session cookie is gone and the browser
      // opens a new TCP connection.
      browser.session_live = false;
      if (browser.has_connection) release_connection(b);
    }

    if (browser.has_connection) {
      // Reuse the kept-alive worker: no accept queue, no handshake.
      q.cancel(browser.keepalive_timer);
      browser.keepalive_timer = EventHandle{};
      browser.has_connection = false;
      --web_ka_held;
      ++web_busy;
      req->reused_connection = true;
      start_web_phase(req);
      return;
    }

    if (web_idle() > 0) {
      ++web_busy;
      start_web_phase(req);
    } else {
      req->accept_enqueued_at = q.now();
      accept_queue.push_back(req);
    }
  }

  int web_idle() const noexcept { return web_total - web_busy - web_ka_held; }
  int app_idle() const noexcept { return app_total - app_busy; }

  void release_connection(int b) {
    auto& browser = browsers[static_cast<std::size_t>(b)];
    RAC_INVARIANT(browser.has_connection,
                  "release_connection: browser holds no connection");
    q.cancel(browser.keepalive_timer);
    browser.keepalive_timer = EventHandle{};
    browser.has_connection = false;
    --web_ka_held;
    drain_accept_queue();
  }

  void drain_accept_queue() {
    while (!accept_queue.empty() && web_idle() > 0) {
      Request* req = accept_queue.front();
      accept_queue.pop_front();
      req->accept_wait_s = q.now() - req->accept_enqueued_at;
      ++web_busy;
      start_web_phase(req);
    }
  }

  // ---- web phase ---------------------------------------------------------------

  void start_web_phase(Request* req) {
    double demand_ms = req->spec->web_demand_ms * P.demand_scale_web;
    if (!req->reused_connection) demand_ms += P.conn_setup_ms;
    web_cpu.submit(demand_ms / kMsPerSecond, [this, req] { enter_app_tier(req); });
  }

  // ---- app phase ---------------------------------------------------------------

  void enter_app_tier(Request* req) {
    if (app_idle() > 0) {
      ++app_busy;
      start_app_phase(req);
    } else if (app_total < cfg.value(ParamId::kMaxThreads)) {
      // Tomcat grows the pool on demand up to MaxThreads.
      ++app_total;
      ++app_busy;
      req->spawned_thread = true;
      start_app_phase(req);
    } else {
      req->app_enqueued_at = q.now();
      app_queue.push_back(req);
    }
  }

  void start_app_phase(Request* req) {
    auto& browser = browsers[static_cast<std::size_t>(req->browser)];
    double extra_db_ms = 0.0;
    if (req->spec->uses_session) {
      if (measuring) ++session_requests;
      const double timeout_s =
          60.0 * static_cast<double>(cfg.value(ParamId::kSessionTimeout));
      const bool timed_out =
          browser.session_live &&
          (q.now() - browser.session_last_use) > timeout_s;
      if (timed_out || !browser.session_live) {
        // Rebuild (or create) the server-side session from the database.
        extra_db_ms += P.session_rebuild_ms;
        // A *rebuild* is a mid-session request whose session state is gone
        // (timed out here, or already reaped by the maintenance pass) --
        // the user is still shopping and eats the rebuild latency. First
        // requests of a fresh session are plain creates.
        if (!req->new_session) {
          req->rebuilt_session = true;
          if (measuring) ++session_rebuilds;
        }
      }
      browser.session_live = true;
      browser.session_last_use = q.now();
    }

    double demand_ms = req->spec->app_demand_ms * P.demand_scale_app;
    if (req->spawned_thread) demand_ms += P.thread_spawn_cost_ms;
    req->pending_db_ms =
        req->spec->db_demand_ms * P.demand_scale_db + extra_db_ms;
    app_cpu.submit(demand_ms / kMsPerSecond, [this, req] { start_db_phase(req); });
  }

  // ---- db phase -----------------------------------------------------------------

  void start_db_phase(Request* req) {
    double demand_ms = req->pending_db_ms * db_miss_mult;
    if (req->spec->is_write) {
      // Lock contention: each additional concurrent writer stretches the
      // critical sections.
      demand_ms *= 1.0 + P.write_lock_coeff * concurrent_writers;
      ++concurrent_writers;
      req->counted_as_writer = true;
    }
    app_cpu.submit(demand_ms / kMsPerSecond, [this, req] { finish_request(req); });
  }

  // ---- completion ------------------------------------------------------------------

  void finish_request(Request* req) {
    if (req->counted_as_writer) --concurrent_writers;

    // Release the app thread.
    --app_busy;
    if (!app_queue.empty()) {
      Request* next = app_queue.front();
      app_queue.pop_front();
      next->app_wait_s = q.now() - next->app_enqueued_at;
      ++app_busy;
      start_app_phase(next);
    }

    // Record the measurement.
    if (measuring) {
      const double rt_ms = (q.now() - req->issued_at) * kMsPerSecond;
      response_samples_ms.push_back(rt_ms);
      accept_wait_ms.add(req->accept_wait_s * kMsPerSecond);
      app_wait_ms.add(req->app_wait_s * kMsPerSecond);
      ++completed;
      if (req->reused_connection) ++reused;
    }

    // Decide the connection's fate, then let the browser think.
    const int b = req->browser;
    auto& browser = browsers[static_cast<std::size_t>(b)];
    --web_busy;
    browser.next_step = browser.gen.next();
    const int ka_timeout = cfg.value(ParamId::kKeepAliveTimeout);
    if (!browser.next_step.new_session && ka_timeout > 0) {
      // Park the worker on the idle connection.
      browser.has_connection = true;
      ++web_ka_held;
      browser.keepalive_timer = q.schedule_in(
          static_cast<double>(ka_timeout), [this, b] { keepalive_expired(b); });
    }

    q.schedule_in(browser.next_step.think_time_s, [this, b] { issue_request(b); });
    free_request(req);

    drain_accept_queue();
  }

  void keepalive_expired(int b) {
    auto& browser = browsers[static_cast<std::size_t>(b)];
    browser.keepalive_timer = EventHandle{};
    RAC_INVARIANT(browser.has_connection,
                  "keepalive_expired: browser holds no connection");
    browser.has_connection = false;
    --web_ka_held;
    drain_accept_queue();
  }

  // ---- pool maintenance & memory model --------------------------------------------

  void schedule_maintenance() {
    q.schedule_in(P.maintenance_interval_s, [this] {
      maintain_pools();
      update_memory_model();
      if (measuring) {
        web_pool_size.add(static_cast<double>(web_total));
        app_pool_size.add(static_cast<double>(app_total));
        buffer_pool_mb.add(db_buffer_mb);
      }
      schedule_maintenance();
    });
  }

  void maintain_pools() {
    const int max_clients = cfg.value(ParamId::kMaxClients);
    const int min_spare = cfg.value(ParamId::kMinSpareServers);
    const int max_spare = cfg.value(ParamId::kMaxSpareServers);

    // Enforce a shrunken MaxClients first (idle workers die immediately).
    if (web_total > max_clients) {
      const int excess = std::min(web_total - max_clients, web_idle());
      web_total -= excess;
    }

    const int idle = web_idle();
    if (idle < min_spare) {
      // Fork toward MinSpareServers, bounded by the ramp cap and MaxClients.
      int deficit = min_spare - idle;
      deficit = std::min(deficit, P.max_forks_per_interval);
      deficit = std::min(deficit, max_clients - web_total - web_forking);
      for (int i = 0; i < deficit; ++i) {
        ++web_forking;
        if (measuring) ++forks;
        // The fork burns CPU on the web VM...
        web_cpu.submit(P.fork_cost_ms / kMsPerSecond, [] {});
        // ...and the child serves only after the fork latency.
        q.schedule_in(P.fork_latency_s, [this] {
          --web_forking;
          ++web_total;
          drain_accept_queue();
        });
      }
    } else if (idle > max_spare) {
      // Apache kills one idle child per maintenance cycle.
      const int excess = std::min(idle - max_spare, idle);
      web_total -= std::min(excess, 1 + excess / 4);
    }

    // Tomcat thread pool: spares managed analogously (spawning is cheap and
    // immediate; the cost is charged when a request triggers the spawn).
    const int max_threads = cfg.value(ParamId::kMaxThreads);
    const int min_spare_t = cfg.value(ParamId::kMinSpareThreads);
    const int max_spare_t = cfg.value(ParamId::kMaxSpareThreads);
    if (app_total > max_threads) {
      app_total = std::max(app_busy, max_threads);
    }
    const int idle_t = app_idle();
    if (idle_t < min_spare_t && app_total < max_threads) {
      const int grow = std::min(min_spare_t - idle_t, max_threads - app_total);
      app_total += grow;
      app_cpu.submit(grow * P.thread_spawn_cost_ms / kMsPerSecond, [] {});
    } else if (idle_t > max_spare_t) {
      const int excess = idle_t - max_spare_t;
      app_total -= std::min(excess, 1 + excess / 4);
    }
  }

  void update_memory_model() {
    // Web VM: workers are the footprint.
    const double web_used =
        P.os_base_mem_mb +
        (web_total + web_forking) * P.web_worker_mem_mb;
    web_swap_factor = swap_factor(web_used, web_vm.mem_mb);

    // App VM: threads + live sessions; the database buffer pool gets the
    // remainder.
    int live_sessions = 0;
    const double timeout_s =
        60.0 * static_cast<double>(cfg.value(ParamId::kSessionTimeout));
    for (auto& browser : browsers) {
      if (browser.session_live &&
          (q.now() - browser.session_last_use) <= timeout_s) {
        ++live_sessions;
      } else {
        browser.session_live = false;
      }
    }
    const double app_used = P.os_base_mem_mb + app_total * P.app_thread_mem_mb +
                            live_sessions * P.session_mem_mb;
    app_swap_factor = swap_factor(app_used, app_vm.mem_mb);
    db_buffer_mb = std::max(P.db_min_buffer_mb, app_vm.mem_mb - app_used);
    db_miss_mult =
        1.0 +
        P.db_miss_coeff * std::max(0.0, db_working_set_mb / db_buffer_mb - 1.0);
  }

  double swap_factor(double used_mb, double total_mb) const {
    const double over = std::max(0.0, used_mb - total_mb) / total_mb;
    return 1.0 + P.swap_slowdown_coeff * over * over;
  }

  // ---- measurement window -----------------------------------------------------------

  void reset_window_stats() {
    response_samples_ms.clear();
    accept_wait_ms.reset();
    app_wait_ms.reset();
    completed = 0;
    reused = 0;
    session_requests = 0;
    session_rebuilds = 0;
    forks = 0;
    web_pool_size.reset();
    app_pool_size.reset();
    buffer_pool_mb.reset();
  }

  Measurement collect(double window_s) const {
    Measurement m;
    m.completed = completed;
    m.throughput_rps = static_cast<double>(completed) / window_s;
    if (!response_samples_ms.empty()) {
      m.mean_response_ms = util::mean_of(response_samples_ms);
      m.p95_response_ms = util::percentile(response_samples_ms, 95.0);
    }
    m.mean_accept_wait_ms = accept_wait_ms.mean();
    m.mean_app_wait_ms = app_wait_ms.mean();
    m.connection_reuse_rate =
        completed == 0 ? 0.0
                       : static_cast<double>(reused) / static_cast<double>(completed);
    m.session_rebuild_rate =
        session_requests == 0
            ? 0.0
            : static_cast<double>(session_rebuilds) /
                  static_cast<double>(session_requests);
    m.mean_web_workers = web_pool_size.mean();
    m.mean_app_threads = app_pool_size.mean();
    m.mean_db_buffer_mb = buffer_pool_mb.mean();
    m.forks = forks;
    return m;
  }
};

ThreeTierSystem::ThreeTierSystem(const SystemParams& params,
                                 const SimSetup& setup)
    : impl_(std::make_unique<Impl>(  // rac-analyze: allow(hot-path-alloc) one-time pimpl construction
          params, setup)) {}

ThreeTierSystem::~ThreeTierSystem() = default;

Measurement ThreeTierSystem::run(double warmup_s, double measure_s) {
  if (warmup_s < 0.0 || measure_s <= 0.0) {
    throw std::invalid_argument("ThreeTierSystem::run: bad window");
  }
  // Handles are resolved per interval against the injected registry (an
  // interval simulates seconds of virtual time; the name lookup is noise).
  // Function-local statics here were the PR 2 metrics-routing bug class:
  // they pin the counters to whichever registry the first caller used.
  obs::Registry& registry = obs::registry_or_default(impl_->registry);
  obs::Counter& c_intervals = registry.counter("tiersim.measurement_intervals");
  obs::Counter& c_completed = registry.counter("tiersim.completed_requests");
  obs::Counter& c_forks = registry.counter("tiersim.forks");
  obs::Counter& c_ps_jobs = registry.counter("tiersim.ps_jobs_submitted");
  obs::Counter& c_events = registry.counter("tiersim.events");
  obs::Histogram& h_interval =
      registry.histogram("tiersim.interval_us", obs::latency_us_bounds());
  const obs::ProfileScope profile("tiersim.interval", h_interval);

  const std::uint64_t ps_jobs_before =
      impl_->web_cpu.jobs_submitted() + impl_->app_cpu.jobs_submitted();
  const std::uint64_t events_before = impl_->q.events_executed();
  impl_->measuring = false;
  impl_->q.run_until(impl_->q.now() + warmup_s);
  impl_->reset_window_stats();
  impl_->measuring = true;
  impl_->q.run_until(impl_->q.now() + measure_s);
  impl_->measuring = false;
  Measurement measurement = impl_->collect(measure_s);
  c_intervals.add(1);
  c_completed.add(measurement.completed);
  c_forks.add(measurement.forks);
  c_ps_jobs.add(impl_->web_cpu.jobs_submitted() +
                impl_->app_cpu.jobs_submitted() - ps_jobs_before);
  c_events.add(impl_->q.events_executed() - events_before);
  return measurement;
}

void ThreeTierSystem::reconfigure(const config::Configuration& configuration) {
  impl_->cfg = configuration;
  // Pool sizes adapt through the next maintenance cycles; the memory model
  // refreshes immediately so a pathological setting is felt promptly.
  impl_->update_memory_model();
}

void ThreeTierSystem::set_app_vm(const VmSpec& vm) {
  impl_->app_vm = vm;
  impl_->app_cpu.set_cores(vm.vcpus);
  impl_->update_memory_model();
}

const config::Configuration& ThreeTierSystem::configuration() const noexcept {
  return impl_->cfg;
}

double ThreeTierSystem::now() const noexcept { return impl_->q.now(); }

}  // namespace rac::tiersim
