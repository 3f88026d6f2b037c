// Baseline 2 (paper Section 5.2): the trial-and-error method that mimics
// the way an administrator tunes the system manually. Quoting the paper:
// it "tunes the system starting from an arbitrary parameter and fixes the
// remaining parameters. The parameter setting that produces the best
// performance is selected as the optimal value for this parameter. Then
// the agent goes to the next parameter. Once all the parameters are
// processed, the resulted parameter settings are considered as the best
// configuration."
//
// Each parameter is swept over three candidate values spanning its range
// (the admin tries low / middle / high); the sweep granularity is
// deliberately coarse -- trying every fine-grid value for eight parameters
// would take hundreds of intervals. Because parameters are tuned
// independently and coarsely, the method is prone to being trapped in
// local optimal settings (paper Section 5.2), and each probe of a
// pathological value costs a full measurement interval of bad service.
//
// Context changes are detected with the same violation detector the RAC
// agent uses, but only while holding a finished configuration (during a
// sweep the response time is expected to jump around); a detection
// restarts the sweep.
#pragma once

#include <cstddef>
#include <vector>

#include "core/agent.hpp"
#include "core/violation.hpp"

namespace rac::baselines {

class TrialAndErrorAgent : public core::ConfigAgent {
 public:
  TrialAndErrorAgent();

  config::Configuration decide() override;
  void observe(const config::Configuration& applied,
               const env::PerfSample& sample) override;
  std::string name() const override { return "trial-and-error"; }

  bool finished_sweep() const noexcept { return done_; }
  int restarts() const noexcept { return restarts_; }
  const config::Configuration& base() const noexcept { return base_; }

 private:
  core::ViolationDetector detector_;
  config::Configuration base_;      // settings locked in so far
  std::size_t param_index_ = 0;
  std::vector<int> candidates_;     // values to try for the current param
  std::size_t candidate_index_ = 0;
  double best_response_ = 0.0;
  int best_value_ = 0;
  bool have_best_ = false;
  bool done_ = false;
  int restarts_ = 0;

  void start_parameter(std::size_t index);
};

}  // namespace rac::baselines
