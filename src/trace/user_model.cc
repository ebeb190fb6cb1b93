#include "src/trace/user_model.h"

#include <cmath>

#include "src/common/check.h"

namespace pad {

DiurnalProfile::DiurnalProfile(const std::array<double, 24>& hourly_weights) {
  double total = 0.0;
  for (double w : hourly_weights) {
    PAD_CHECK(w >= 0.0);
    total += w;
  }
  PAD_CHECK_MSG(total > 0.0, "diurnal profile needs a positive weight");
  // Normalize to mean 1.0 across the 24 hours.
  const double scale = 24.0 / total;
  for (size_t h = 0; h < 24; ++h) {
    weights_[h] = hourly_weights[h] * scale;
  }
}

DiurnalProfile DiurnalProfile::Typical() {
  // Hours 0..23. Night trough, morning commute ramp, lunch bump, evening peak.
  return DiurnalProfile({0.15, 0.08, 0.05, 0.04, 0.05, 0.12,  //  0 -  5
                         0.35, 0.70, 0.95, 0.90, 0.85, 1.10,  //  6 - 11
                         1.30, 1.10, 0.95, 0.95, 1.05, 1.25,  // 12 - 17
                         1.55, 1.85, 2.05, 1.90, 1.35, 0.60});  // 18 - 23
}

DiurnalProfile DiurnalProfile::Flat() {
  std::array<double, 24> flat;
  flat.fill(1.0);
  return DiurnalProfile(flat);
}

double DiurnalProfile::SampleHour(Rng& rng, double phase_shift_h) const {
  const int hour = rng.WeightedChoice(std::span<const double>(weights_.data(), weights_.size()));
  double h = static_cast<double>(hour) + rng.NextDouble() + phase_shift_h;
  h = std::fmod(h, 24.0);
  if (h < 0.0) {
    h += 24.0;
  }
  return h;
}

std::vector<UserArchetype> DefaultArchetypes() {
  // Rates follow the 2012-era usage studies behind the paper's traces:
  // smartphone owners launched apps dozens of times per day.
  return {
      {.name = "light", .weight = 0.35, .sessions_per_day = 8.0,
       .session_duration_mu = std::log(60.0), .session_duration_sigma = 0.9},
      {.name = "regular", .weight = 0.45, .sessions_per_day = 25.0,
       .session_duration_mu = std::log(90.0), .session_duration_sigma = 1.0},
      {.name = "heavy", .weight = 0.20, .sessions_per_day = 60.0,
       .session_duration_mu = std::log(120.0), .session_duration_sigma = 1.1},
  };
}

}  // namespace pad
