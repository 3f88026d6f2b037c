// Extra baseline (beyond the paper): a per-parameter greedy line search in
// the spirit of the smart hill-climbing tuners the paper cites ([18],
// [19]). Starting from the current setting of one parameter it probes one
// fine-grid step up, then (if that did not help) one step down, keeps
// walking in the improving direction until the measured response time
// stops improving, locks the parameter, and moves on to the next one.
//
// Compared with the paper's coarse trial-and-error sweep this is a much
// stronger local optimizer (it exploits the fine grid and never visits the
// pathological extremes), which makes it a useful upper baseline for the
// comparison benches -- see EXPERIMENTS.md for how it fares against RAC.
// It still tunes parameters independently and cannot escape local optima
// created by parameter interactions. A violation detector (active only
// while holding, not while the admin is knowingly experimenting) restarts
// the pass when the system context visibly changes. Each probe moves one
// fine-grid step (the online learning step), and the agent makes one pass
// over the parameters, as an administrator usually stops after one.
#pragma once

#include <cstddef>

#include "core/agent.hpp"
#include "core/violation.hpp"

namespace rac::baselines {

class HillClimbAgent : public core::ConfigAgent {
 public:
  config::Configuration decide() override;
  void observe(const config::Configuration& applied,
               const env::PerfSample& sample) override;
  std::string name() const override { return "hill-climb"; }

  bool finished_sweep() const noexcept { return phase_ == Phase::kHold; }
  int restarts() const noexcept { return restarts_; }
  const config::Configuration& base() const noexcept { return base_; }

 private:
  enum class Phase {
    kBaseline,  // measure the current base before touching anything
    kProbeUp,   // trying base + step
    kProbeDown, // trying base - step
    kWalk,      // moving in the improving direction
    kHold,      // pass complete, hold the result
  };

  core::ViolationDetector detector_;
  config::Configuration base_;   // settings locked in so far
  double base_response_ = 0.0;   // response time of `base_`
  std::size_t param_index_ = 0;
  int direction_ = +1;
  Phase phase_ = Phase::kBaseline;
  int restarts_ = 0;
  config::Configuration pending_;  // configuration proposed by decide()

  config::ParamId param() const { return config::kAllParams[param_index_]; }
  void advance_parameter();
  void begin_pass();
};

}  // namespace rac::baselines
