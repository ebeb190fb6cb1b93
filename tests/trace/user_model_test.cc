#include "src/trace/user_model.h"

#include <gtest/gtest.h>

#include <array>

namespace pad {
namespace {

TEST(DiurnalProfileTest, FlatIsConstant) {
  const DiurnalProfile flat = DiurnalProfile::Flat();
  Rng rng(4);
  std::array<int, 24> per_hour{};
  const int n = 24000;
  for (int i = 0; i < n; ++i) {
    ++per_hour[static_cast<size_t>(flat.SampleHour(rng))];
  }
  for (int count : per_hour) {
    EXPECT_NEAR(count, n / 24, 150);  // ~5 binomial standard deviations.
  }
}

TEST(DiurnalProfileTest, SampleHourInRangeAndFollowsProfile) {
  const DiurnalProfile profile = DiurnalProfile::Typical();
  Rng rng(5);
  int evening = 0;
  int night = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double h = profile.SampleHour(rng);
    ASSERT_GE(h, 0.0);
    ASSERT_LT(h, 24.0);
    if (h >= 18.0 && h < 22.0) {
      ++evening;
    }
    if (h >= 2.0 && h < 6.0) {
      ++night;
    }
  }
  EXPECT_GT(evening, 5 * night);
}

TEST(DiurnalProfileTest, SampleHourHonorsPhaseShift) {
  const DiurnalProfile profile = DiurnalProfile::Typical();
  Rng rng(6);
  double sum_shifted = 0.0;
  const int n = 20000;
  int late_night = 0;
  for (int i = 0; i < n; ++i) {
    const double h = profile.SampleHour(rng, 6.0);
    sum_shifted += h;
    if (h >= 0.0 && h < 4.0) {
      ++late_night;  // 18-22 peak shifted by 6 lands at 0-4.
    }
  }
  EXPECT_GT(static_cast<double>(late_night) / n, 0.2);
  (void)sum_shifted;
}

TEST(DiurnalProfileDeathTest, AllZeroWeightsAbort) {
  std::array<double, 24> zeros{};
  EXPECT_DEATH(DiurnalProfile profile(zeros), "positive");
}

TEST(ArchetypesTest, DefaultsAreWellFormed) {
  const auto archetypes = DefaultArchetypes();
  ASSERT_EQ(archetypes.size(), 3u);
  double weight = 0.0;
  for (const UserArchetype& archetype : archetypes) {
    EXPECT_GT(archetype.weight, 0.0);
    EXPECT_GT(archetype.sessions_per_day, 0.0);
    EXPECT_GT(archetype.session_duration_sigma, 0.0);
    weight += archetype.weight;
  }
  EXPECT_NEAR(weight, 1.0, 1e-9);
  // Heavy users are an order of magnitude more active than light ones.
  EXPECT_GT(archetypes.back().sessions_per_day / archetypes.front().sessions_per_day, 5.0);
}

}  // namespace
}  // namespace pad
