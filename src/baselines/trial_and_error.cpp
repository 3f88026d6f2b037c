#include "baselines/trial_and_error.hpp"

#include "config/space.hpp"

namespace rac::baselines {

namespace {
/// Candidate values tried per parameter, spread evenly over its range.
constexpr int kValuesPerParameter = 3;

std::vector<int> spread_values(config::ParamId id) {
  std::vector<int> values;
  values.reserve(kValuesPerParameter);
  for (int i = 0; i < kValuesPerParameter; ++i) {
    const double t = static_cast<double>(i) /
                     static_cast<double>(kValuesPerParameter - 1);
    config::Configuration c;
    c.set_normalized(id, t);
    const int v = config::ConfigSpace::snap_to_fine(c).value(id);
    if (values.empty() || values.back() != v) values.push_back(v);
  }
  return values;
}
}  // namespace

TrialAndErrorAgent::TrialAndErrorAgent() { start_parameter(0); }

void TrialAndErrorAgent::start_parameter(std::size_t index) {
  param_index_ = index;
  candidates_ = spread_values(config::kAllParams[index]);
  candidate_index_ = 0;
  have_best_ = false;
  done_ = false;
}

config::Configuration TrialAndErrorAgent::decide() {
  if (done_) return base_;
  config::Configuration trial = base_;
  trial.set(config::kAllParams[param_index_], candidates_[candidate_index_]);
  return trial;
}

void TrialAndErrorAgent::observe(const config::Configuration& applied,
                                 const env::PerfSample& sample) {
  if (done_) {
    if (detector_.observe(sample.response_ms)) {
      ++restarts_;
      start_parameter(0);
    }
    return;
  }
  detector_.reset();  // experimenting: jumps are self-inflicted

  const int value = applied.value(config::kAllParams[param_index_]);
  if (!have_best_ || sample.response_ms < best_response_) {
    best_response_ = sample.response_ms;
    best_value_ = value;
    have_best_ = true;
  }
  ++candidate_index_;
  if (candidate_index_ >= candidates_.size()) {
    base_.set(config::kAllParams[param_index_], best_value_);
    if (param_index_ + 1 < config::kNumParams) {
      start_parameter(param_index_ + 1);
    } else {
      done_ = true;
    }
  }
}

}  // namespace rac::baselines
