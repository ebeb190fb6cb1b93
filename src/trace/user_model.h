// Statistical building blocks of the synthetic user population.
//
// The generator's design goal is to reproduce the *structure* the paper's
// prediction and overbooking results depend on, with each property exposed as
// a knob:
//   * heterogeneity ACROSS users  — archetype mixture + lognormal rate spread
//     (some users produce 50x the ad slots of others);
//   * regularity WITHIN a user    — a stable personal diurnal profile, so the
//     same hours of the day look alike week over week and time-of-day
//     prediction works;
//   * day-to-day noise            — a lognormal per-day activity multiplier,
//     the reason predictions are "unreliable" and overbooking is needed.
#ifndef ADPAD_SRC_TRACE_USER_MODEL_H_
#define ADPAD_SRC_TRACE_USER_MODEL_H_

#include <array>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace pad {

// Relative session rate per hour of day. Weights are normalized so they
// average 1.0: multiplying by a user's base sessions/day keeps the mean.
class DiurnalProfile {
 public:
  // Builds from 24 non-negative hourly weights (at least one positive).
  explicit DiurnalProfile(const std::array<double, 24>& hourly_weights);

  // Typical smartphone usage curve: near-zero at night, a morning ramp,
  // lunchtime bump, and a strong evening peak.
  static DiurnalProfile Typical();

  // Constant rate across the day (no diurnal structure); the ablation knob.
  static DiurnalProfile Flat();

  // Samples an hour-of-day (real-valued, in [0, 24)) from the profile with
  // the given phase shift.
  double SampleHour(Rng& rng, double phase_shift_h = 0.0) const;

 private:
  std::array<double, 24> weights_;
};

// A class of users sharing activity statistics. The population is a mixture.
struct UserArchetype {
  std::string name;
  double weight = 1.0;                 // Mixture weight.
  double sessions_per_day = 8.0;       // Mean daily foreground sessions.
  double session_duration_mu = 4.0;    // Lognormal params of session length (s).
  double session_duration_sigma = 1.0;
};

// The default mixture: light/regular/heavy, calibrated to give a population
// mean of ~10 sessions/day with a heavy right tail, consistent with the
// 2012-era smartphone-usage studies the paper draws on.
std::vector<UserArchetype> DefaultArchetypes();

// Concrete parameters drawn for one user.
struct UserParams {
  int user_id = 0;
  int archetype = 0;
  double sessions_per_day = 0.0;   // Base rate after heterogeneity spread.
  double duration_mu = 0.0;
  double duration_sigma = 0.0;
  double phase_shift_h = 0.0;      // Personal diurnal shift.
  int segment = 0;                 // Audience segment for ad targeting.
  std::vector<int> app_rank;       // Per-user app preference order (Zipf ranks).
};

}  // namespace pad

#endif  // ADPAD_SRC_TRACE_USER_MODEL_H_
