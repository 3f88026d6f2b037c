#include "baselines/hill_climb.hpp"

#include "config/space.hpp"

namespace rac::baselines {

void HillClimbAgent::begin_pass() {
  param_index_ = 0;
  phase_ = Phase::kBaseline;
}

void HillClimbAgent::advance_parameter() {
  if (param_index_ + 1 < config::kNumParams) {
    ++param_index_;
    phase_ = Phase::kProbeUp;
  } else {
    phase_ = Phase::kHold;
  }
}

config::Configuration HillClimbAgent::decide() {
  pending_ = base_;
  switch (phase_) {
    case Phase::kBaseline:
    case Phase::kHold:
      break;
    case Phase::kProbeUp:
      pending_.step(param(), 1);
      break;
    case Phase::kProbeDown:
      pending_.step(param(), -1);
      break;
    case Phase::kWalk:
      pending_.step(param(), direction_);
      break;
  }
  return pending_;
}

void HillClimbAgent::observe(const config::Configuration& applied,
                                 const env::PerfSample& sample) {
  // The admin only trusts "something changed behind my back" while
  // holding a supposedly-good configuration; during experiments the
  // response time is expected to move.
  if (phase_ == Phase::kHold) {
    if (detector_.observe(sample.response_ms)) {
      ++restarts_;
      begin_pass();
      base_response_ = sample.response_ms;
      return;
    }
  } else {
    detector_.reset();
  }

  const bool improved = sample.response_ms < base_response_;
  const bool moved = !(applied == base_);

  switch (phase_) {
    case Phase::kBaseline:
      base_response_ = sample.response_ms;
      phase_ = Phase::kProbeUp;
      break;
    case Phase::kProbeUp:
      if (moved && improved) {
        base_ = applied;
        base_response_ = sample.response_ms;
        direction_ = +1;
        phase_ = Phase::kWalk;
      } else {
        phase_ = Phase::kProbeDown;
      }
      break;
    case Phase::kProbeDown:
      if (moved && improved) {
        base_ = applied;
        base_response_ = sample.response_ms;
        direction_ = -1;
        phase_ = Phase::kWalk;
      } else {
        advance_parameter();  // neither direction helps: parameter is done
      }
      break;
    case Phase::kWalk:
      if (moved && improved) {
        base_ = applied;
        base_response_ = sample.response_ms;
        // keep walking the same direction
      } else {
        advance_parameter();
      }
      break;
    case Phase::kHold:
      // Slowly track drift so noise does not freeze an outdated baseline.
      base_response_ += 0.2 * (sample.response_ms - base_response_);
      break;
  }
}

}  // namespace rac::baselines
