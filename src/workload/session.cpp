#include "workload/session.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"
#include "workload/cbmg.hpp"

namespace rac::workload {

SessionGenerator::SessionGenerator(MixType mix, util::Rng rng,
                                   double think_scale)
    : mix_(mix), rng_(rng), profile_(browser_profile(mix)) {
  RAC_EXPECT(think_scale > 0.0,
             "SessionGenerator: non-positive think_scale");
  profile_.think_time_mean_s *= think_scale;
  profile_.pause_mean_s *= think_scale;
}

int SessionGenerator::draw_session_length() {
  // Geometric with the profile's mean, at least 1 interaction. A single
  // inversion draw, where trial-by-trial sampling would consume one
  // uniform per interaction of every session the simulation starts.
  //
  // Convention audit: Rng::geometric(p) is the *trials* convention --
  // the number of bernoulli(p) trials up to and including the first
  // success, support {1, 2, ...}, E[X] = 1/p exactly -- not the
  // failures-before-success convention (support {0, 1, ...},
  // E[X] = (1-p)/p). geometric(1.0 / mean) therefore realizes the
  // profile's mean session length with no off-by-one; the
  // GeometricMeanIsOneOverP (util) and SessionLengthMatchesProfileMean
  // (workload) regression tests pin both halves of that claim.
  const double mean = profile_.session_length_mean;
  RAC_EXPECT(mean >= 1.0, "draw_session_length: mean below 1 interaction");
  return rng_.geometric(1.0 / mean);
}

Interaction SessionGenerator::draw_interaction() {
  if (!in_session_) {
    // Session entry: the chain's own stationary distribution, so entries
    // and in-session navigation follow one consistent chain (see the
    // design note on entry_distribution in cbmg.hpp).
    const auto& entry = entry_distribution(mix_);
    return static_cast<Interaction>(rng_.categorical(entry));
  }
  const auto& row =
      cbmg_matrix(mix_)[static_cast<std::size_t>(last_)];
  return static_cast<Interaction>(rng_.categorical(row));
}

BrowserStep SessionGenerator::next() {
  BrowserStep step{};
  if (remaining_in_session_ == 0) {
    remaining_in_session_ = draw_session_length();
    step.new_session = true;
    step.think_time_s =
        sessions_ == 0
            // Stagger initial arrivals over one think time to avoid a
            // synchronized thundering herd at simulation start.
            ? rng_.uniform(0.0, profile_.think_time_mean_s)
            : rng_.exponential(profile_.inter_session_gap_s);
    ++sessions_;
  } else {
    step.new_session = false;
    step.think_time_s = rng_.exponential(profile_.think_time_mean_s);
    if (rng_.bernoulli(profile_.pause_prob)) {
      step.think_time_s += rng_.exponential(profile_.pause_mean_s);
    }
  }
  if (step.new_session) in_session_ = false;
  step.interaction = draw_interaction();
  last_ = step.interaction;
  in_session_ = true;
  --remaining_in_session_;
  ++steps_;
  return step;
}

SessionState SessionGenerator::state() const {
  SessionState s;
  s.rng = rng_.state();
  s.remaining_in_session = remaining_in_session_;
  s.last_interaction = static_cast<int>(last_);
  s.in_session = in_session_;
  s.steps = steps_;
  s.sessions = sessions_;
  return s;
}

void SessionGenerator::restore(const SessionState& state) {
  if (state.remaining_in_session < 0) {
    throw std::invalid_argument(
        "SessionGenerator::restore: negative remaining_in_session");
  }
  if (state.last_interaction < 0 ||
      state.last_interaction >= static_cast<int>(kNumInteractions)) {
    throw std::invalid_argument(
        "SessionGenerator::restore: interaction outside the enum");
  }
  rng_.restore(state.rng);  // validates the word state before we commit
  remaining_in_session_ = state.remaining_in_session;
  last_ = static_cast<Interaction>(state.last_interaction);
  in_session_ = state.in_session;
  steps_ = state.steps;
  sessions_ = state.sessions;
}

}  // namespace rac::workload
