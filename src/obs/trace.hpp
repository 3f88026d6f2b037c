// Structured decision tracing for the online management loop.
//
// One TraceEvent per measurement interval records everything an operator
// needs to replay a decision: the state (configuration) the agent chose,
// whether the choice was greedy or exploratory and at what Q-value, the
// measured performance and reward, and the context-adaptation signals
// (violation streak, active initial policy, policy switches). Events flow
// into a TraceSink; the JSONL sink makes runs machine-diffable, the
// in-memory sink backs tests and example reports, and the null sink keeps
// the disabled-path cost at a virtual call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rac::obs {

/// One management-loop iteration's decision record.
struct TraceEvent {
  int iteration = -1;
  std::string agent;
  std::vector<int> state;   // configuration parameter values, catalog order
  std::string action;       // e.g. "MaxClients+" / "keep"
  bool explored = false;    // epsilon branch taken (vs greedy)
  double q_value = 0.0;     // Q(s, a) of the chosen action at decision time
  double response_ms = 0.0;
  double throughput_rps = 0.0;
  double reward = 0.0;          // normalized SLA reward of the measurement
  double sla_margin_ms = 0.0;   // SLA reference minus measured response
  int active_policy = -1;       // initial-policy index, -1 = none
  bool policy_switched = false; // Section-V switch fired this iteration
  bool violation = false;       // this measurement violated pvar >= v_thr
  int consecutive_violations = 0;
  // Fault-visibility fields (PR 5). Rendered into the JSON only when they
  // differ from these defaults, so traces of clean runs stay byte-identical
  // to pre-fault-layer output.
  int measure_attempts = 1;          // measure_interval calls this interval
  bool measurement_missing = false;  // interval lost after all retries
  bool safe_fallback = false;        // agent reverted to best-known config
  std::string fault_note;            // injected-fault description ("" = clean)
  std::string context;          // environment context name (ground truth)
};

/// Single-line JSON rendering (no trailing newline).
std::string to_json(const TraceEvent& event);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Collects events in memory (thread-safe); tests and reports read them.
class MemoryTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent& event) override;

  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Appends one JSON object per line to a file.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Truncates `path`; throws std::runtime_error when it cannot be opened.
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  void emit(const TraceEvent& event) override;
  void flush() override;

  const std::string& path() const noexcept { return path_; }

 private:
  struct Impl;
  std::string path_;
  std::mutex mutex_;
  std::unique_ptr<Impl> impl_;
};

/// Order-insensitive digest of the emitted event set: each event's JSON
/// line is hashed (FNV-1a 64) and the per-event hashes are combined by
/// modular sum plus an event count, so any interleaving of the same events
/// -- bench fan-out emits from several pool workers concurrently --
/// produces the same digest. Two runs digest equal iff they emitted the
/// same multiset of trace records; bench reports carry the digest so the
/// regression gate can fail hard on decision divergence.
class DigestTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent& event) override;

  std::uint64_t count() const noexcept;
  /// "c<count>-<combined hash, hex>"; "c0-0" when nothing was emitted.
  std::string digest() const;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Fans every event out to several sinks (none owned).
class TeeTraceSink final : public TraceSink {
 public:
  explicit TeeTraceSink(std::vector<TraceSink*> sinks);

  void emit(const TraceEvent& event) override;
  void flush() override;

 private:
  std::vector<TraceSink*> sinks_;
};

/// JSONL sink at the path named by environment variable `var`
/// (conventionally RAC_TRACE); nullptr when unset or empty.
std::unique_ptr<TraceSink> sink_from_env(const char* var = "RAC_TRACE");

}  // namespace rac::obs
