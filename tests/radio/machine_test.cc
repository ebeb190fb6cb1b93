#include "src/radio/machine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/units.h"

namespace pad {
namespace {

Transfer AdFetch(double t, double bytes = 3.0 * kKiB) {
  return Transfer{t, bytes, Direction::kDownlink, TrafficCategory::kAdFetch};
}

Transfer Content(double t, double bytes = 20.0 * kKiB) {
  return Transfer{t, bytes, Direction::kDownlink, TrafficCategory::kAppContent};
}

TEST(RadioMachineTest, SingleTransferMatchesClosedForm) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(100.0));
  machine.Finalize(1000.0);
  EXPECT_NEAR(machine.report().total_energy_j(),
              profile.IsolatedTransferEnergy(3.0 * kKiB, false), 1e-9);
}

TEST(RadioMachineTest, TimingFromIdle) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  const auto result = machine.Submit(AdFetch(100.0));
  EXPECT_DOUBLE_EQ(result.start_time, 100.0 + profile.promo_latency_s);
  EXPECT_NEAR(result.completion_time,
              result.start_time + profile.TransferDuration(3.0 * kKiB, false), 1e-12);
}

TEST(RadioMachineTest, TruncatedTailWhenTransfersClose) {
  const RadioProfile profile = ThreeGProfile();
  // Two transfers 2 s apart: only 2 s of DCH tail paid between them, and the
  // second transfer resumes without promotion (still in DCH).
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0));
  const double first_completion = machine.busy_until();
  const auto second = machine.Submit(AdFetch(first_completion + 2.0));
  EXPECT_DOUBLE_EQ(second.start_time, first_completion + 2.0);  // No promotion.
  machine.Finalize(1e6);

  const double expected = profile.promo_power_w * profile.promo_latency_s +
                          2.0 * profile.active_power_w * profile.TransferDuration(3.0 * kKiB, false) +
                          profile.tail[0].power_w * 2.0 +  // Truncated inter-transfer tail.
                          profile.TotalTailEnergy();       // Full tail after the last.
  EXPECT_NEAR(machine.report().total_energy_j(), expected, 1e-9);
}

TEST(RadioMachineTest, ResumeFromFachPaysReducedPromotion) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0));
  const double completion = machine.busy_until();
  // 8 s after completion: past the 5 s DCH tail, inside the FACH tail.
  const auto second = machine.Submit(AdFetch(completion + 8.0));
  EXPECT_DOUBLE_EQ(second.start_time,
                   completion + 8.0 + profile.tail[1].resume_latency_s);
}

TEST(RadioMachineTest, FullIdlePaysFullPromotion) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0));
  const double completion = machine.busy_until();
  const double long_gap = profile.TotalTailDuration() + 100.0;
  const auto second = machine.Submit(AdFetch(completion + long_gap));
  EXPECT_DOUBLE_EQ(second.start_time,
                   completion + long_gap + profile.promo_latency_s);
}

TEST(RadioMachineTest, QueuedTransferStartsAtCompletion) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0));
  const double busy = machine.busy_until();
  // Requested while the first is still in flight.
  const auto second = machine.Submit(AdFetch(1.0));
  EXPECT_DOUBLE_EQ(second.start_time, busy);
}

TEST(RadioMachineTest, TailAttributedToCausingCategory) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(Content(0.0));
  const double completion = machine.busy_until();
  machine.Submit(AdFetch(completion + 2.0));
  machine.Finalize(1e6);
  const EnergyReport& report = machine.report();
  // Content caused the (truncated 2 s) first tail; the ad owns the full final tail.
  EXPECT_NEAR(report.For(TrafficCategory::kAppContent).tail_j,
              profile.tail[0].power_w * 2.0, 1e-9);
  EXPECT_NEAR(report.For(TrafficCategory::kAdFetch).tail_j, profile.TotalTailEnergy(), 1e-9);
}

TEST(RadioMachineTest, FinalizeTruncatesAtHorizon) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0));
  const double completion = machine.busy_until();
  machine.Finalize(completion + 3.0);  // Horizon cuts into the 5 s DCH tail.
  const double expected = profile.promo_power_w * profile.promo_latency_s +
                          profile.active_power_w * profile.TransferDuration(3.0 * kKiB, false) +
                          profile.tail[0].power_w * 3.0;
  EXPECT_NEAR(machine.report().total_energy_j(), expected, 1e-9);
}

TEST(RadioMachineTest, FinalizeWithNoActivityIsZero) {
  RadioMachine machine(ThreeGProfile());
  machine.Finalize(100.0);
  EXPECT_DOUBLE_EQ(machine.report().total_energy_j(), 0.0);
  EXPECT_EQ(machine.report().total_transfers(), 0);
}

TEST(RadioMachineTest, BytesAndCountsTracked) {
  RadioMachine machine(ThreeGProfile());
  machine.Submit(AdFetch(0.0, 1000.0));
  machine.Submit(AdFetch(100.0, 2000.0));
  machine.Submit(Content(200.0, 5000.0));
  machine.Finalize(1e6);
  const EnergyReport& report = machine.report();
  EXPECT_EQ(report.For(TrafficCategory::kAdFetch).transfers, 2);
  EXPECT_DOUBLE_EQ(report.For(TrafficCategory::kAdFetch).bytes, 3000.0);
  EXPECT_EQ(report.For(TrafficCategory::kAppContent).transfers, 1);
  EXPECT_EQ(report.total_transfers(), 3);
}

TEST(RadioMachineTest, IdealProfileChargesOnlyActiveTime) {
  const RadioProfile profile = IdealProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0, 187500.0));  // 1 s at 1.5 Mbps, zero RTT.
  machine.Finalize(1e6);
  EXPECT_NEAR(machine.report().total_energy_j(), profile.active_power_w * 1.0, 1e-9);
}

TEST(RadioMachineTest, MergeAddsReports) {
  RadioMachine a(ThreeGProfile());
  a.Submit(AdFetch(0.0));
  a.Finalize(1e6);
  RadioMachine b(ThreeGProfile());
  b.Submit(Content(0.0));
  b.Finalize(1e6);
  EnergyReport merged = a.report();
  merged.Merge(b.report());
  EXPECT_NEAR(merged.total_energy_j(),
              a.report().total_energy_j() + b.report().total_energy_j(), 1e-9);
  EXPECT_EQ(merged.total_transfers(), 2);
}

TEST(RadioMachineDeathTest, OutOfOrderSubmitAborts) {
  RadioMachine machine(ThreeGProfile());
  machine.Submit(AdFetch(100.0));
  EXPECT_DEATH(machine.Submit(AdFetch(50.0)), "order");
}

TEST(RadioMachineDeathTest, SubmitAfterFinalizeAborts) {
  RadioMachine machine(ThreeGProfile());
  machine.Finalize(10.0);
  EXPECT_DEATH(machine.Submit(AdFetch(20.0)), "Finalize");
}

TEST(RadioMachineDeathTest, DoubleFinalizeAborts) {
  RadioMachine machine(ThreeGProfile());
  machine.Finalize(10.0);
  EXPECT_DEATH(machine.Finalize(20.0), "twice");
}

// Property: total energy is monotonically non-increasing as the same
// transfers are spaced closer together (batching never costs more).
class BatchingPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(BatchingPropertyTest, TighterSpacingNeverCostsMore) {
  const double spacing = GetParam();
  const RadioProfile profile = ThreeGProfile();
  auto energy_at = [&](double gap) {
    std::vector<Transfer> transfers;
    for (int i = 0; i < 10; ++i) {
      transfers.push_back(AdFetch(static_cast<double>(i) * gap));
    }
    return SimulateTransfers(profile, transfers, 1e7).total_energy_j();
  };
  EXPECT_LE(energy_at(spacing), energy_at(spacing * 2.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Spacings, BatchingPropertyTest,
                         ::testing::Values(0.5, 1.0, 3.0, 6.0, 10.0, 20.0, 60.0, 300.0));

TEST(RadioMachineTest, BulkBeatsSpacedFetches) {
  // The prefetching premise: N ads in one transfer cost far less than N
  // transfers a refresh-interval apart.
  const RadioProfile profile = ThreeGProfile();
  std::vector<Transfer> spaced;
  for (int i = 0; i < 20; ++i) {
    spaced.push_back(AdFetch(static_cast<double>(i) * 30.0));
  }
  const double spaced_energy = SimulateTransfers(profile, spaced, 1e7).total_energy_j();
  const std::vector<Transfer> bulk = {AdFetch(0.0, 20.0 * 3.0 * kKiB)};
  const double bulk_energy = SimulateTransfers(profile, bulk, 1e7).total_energy_j();
  EXPECT_GT(spaced_energy / bulk_energy, 5.0);
}

TEST(RadioMachineTest, StateResidencyAccounted) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  machine.Submit(AdFetch(0.0));
  machine.Finalize(1e6);
  const EnergyReport& report = machine.report();
  EXPECT_NEAR(report.promo_time_s, profile.promo_latency_s, 1e-12);
  EXPECT_NEAR(report.active_time_s, profile.TransferDuration(3.0 * kKiB, false), 1e-12);
  EXPECT_NEAR(report.tail_time_s, profile.TotalTailDuration(), 1e-12);
}

}  // namespace
}  // namespace pad
