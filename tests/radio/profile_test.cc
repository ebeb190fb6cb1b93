#include "src/radio/profile.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/radio/transfer.h"

namespace pad {
namespace {

TEST(ProfileTest, BuiltinsValidate) {
  ThreeGProfile().Validate();
  LteProfile().Validate();
  WifiProfile().Validate();
  IdealProfile().Validate();
}

TEST(ProfileTest, TransferDurationIncludesRttAndSerialization) {
  const RadioProfile profile = ThreeGProfile();
  // 1.5 Mbps downlink: 187500 bytes take 1 s on the wire + 0.2 s RTT.
  EXPECT_NEAR(profile.TransferDuration(187500.0, /*uplink=*/false), 1.2, 1e-9);
  // Uplink is slower (0.5 Mbps).
  EXPECT_GT(profile.TransferDuration(187500.0, /*uplink=*/true),
            profile.TransferDuration(187500.0, /*uplink=*/false));
}

TEST(ProfileTest, ZeroBytesStillPaysRtt) {
  const RadioProfile profile = ThreeGProfile();
  EXPECT_NEAR(profile.TransferDuration(0.0, false), profile.rtt_s, 1e-12);
}

TEST(ProfileTest, ThreeGTailStructure) {
  const RadioProfile profile = ThreeGProfile();
  ASSERT_EQ(profile.tail.size(), 2u);
  EXPECT_NEAR(profile.TotalTailDuration(), 17.0, 1e-9);
  // 5 s at 0.8 W + 12 s at 0.46 W.
  EXPECT_NEAR(profile.TotalTailEnergy(), 5.0 * 0.8 + 12.0 * 0.46, 1e-9);
  // Resuming from the DCH tail is free; from the FACH tail costs a promotion.
  EXPECT_DOUBLE_EQ(profile.tail[0].resume_latency_s, 0.0);
  EXPECT_GT(profile.tail[1].resume_latency_s, 0.0);
}

TEST(ProfileTest, IsolatedTransferEnergyClosedForm) {
  const RadioProfile profile = ThreeGProfile();
  const double bytes = 3.0 * kKiB;
  const double expected = profile.promo_power_w * profile.promo_latency_s +
                          profile.active_power_w * profile.TransferDuration(bytes, false) +
                          profile.TotalTailEnergy();
  EXPECT_NEAR(profile.IsolatedTransferEnergy(bytes, false), expected, 1e-9);
}

TEST(ProfileTest, SmallTransferDominatedByTail) {
  // The paper's core observation: a few-KB ad costs ~10 J on 3G, almost all
  // of it promotion + tail, not bytes.
  const RadioProfile profile = ThreeGProfile();
  const double total = profile.IsolatedTransferEnergy(3.0 * kKiB, false);
  const double tail_and_promo =
      profile.TotalTailEnergy() + profile.promo_power_w * profile.promo_latency_s;
  EXPECT_GT(total, 9.0);
  EXPECT_LT(total, 13.0);
  EXPECT_GT(tail_and_promo / total, 0.95);
}

TEST(ProfileTest, WifiMuchCheaperThanCellular) {
  const double on_3g = ThreeGProfile().IsolatedTransferEnergy(3.0 * kKiB, false);
  const double on_lte = LteProfile().IsolatedTransferEnergy(3.0 * kKiB, false);
  const double on_wifi = WifiProfile().IsolatedTransferEnergy(3.0 * kKiB, false);
  EXPECT_GT(on_3g / on_wifi, 20.0);
  EXPECT_GT(on_lte / on_wifi, 20.0);
}

TEST(ProfileTest, IdealProfileHasNoOverhead) {
  const RadioProfile profile = IdealProfile();
  EXPECT_DOUBLE_EQ(profile.TotalTailEnergy(), 0.0);
  EXPECT_DOUBLE_EQ(profile.promo_latency_s, 0.0);
}

TEST(ProfileDeathTest, InvalidProfileAborts) {
  RadioProfile profile = ThreeGProfile();
  profile.downlink_bps = 0.0;
  EXPECT_DEATH(profile.Validate(), "downlink");
}

}  // namespace
}  // namespace pad
