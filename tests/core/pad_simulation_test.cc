#include "src/core/pad_simulation.h"

#include <gtest/gtest.h>

#include "src/common/units.h"

namespace pad {
namespace {

// One shared small run for the invariant checks (generation + both runners
// are deterministic, so computing it once keeps the suite fast).
const Comparison& SmallComparison() {
  static const Comparison comparison = [] {
    PadConfig config = QuickConfig();
    config.population.num_users = 60;
    return RunComparison(config);
  }();
  return comparison;
}

TEST(GenerateInputsTest, AlignsCatalogAndCampaigns) {
  PadConfig config = QuickConfig();
  config.deadline_s = 2.0 * kHour;
  const SimInputs inputs = GenerateInputs(config);
  EXPECT_EQ(inputs.catalog.size(), 15);
  EXPECT_EQ(static_cast<int>(inputs.population.users.size()), config.population.num_users);
  ASSERT_FALSE(inputs.campaigns.empty());
  for (const Campaign& campaign : inputs.campaigns) {
    EXPECT_DOUBLE_EQ(campaign.display_deadline_s, 2.0 * kHour);
    EXPECT_LT(campaign.arrival_time, config.population.horizon_s);
  }
  // Sessions reference only catalog apps.
  for (const UserTrace& user : inputs.population.users) {
    for (const Session& session : user.sessions) {
      EXPECT_GE(session.app_id, 0);
      EXPECT_LT(session.app_id, 15);
    }
  }
}

TEST(BaselineTest, EveryDisplayedSlotBillsImmediately) {
  const BaselineResult& baseline = SmallComparison().baseline;
  EXPECT_GT(baseline.service.slots, 0);
  EXPECT_EQ(baseline.service.served_from_cache, 0);
  EXPECT_EQ(baseline.service.fallback_fetches + baseline.service.unfilled,
            baseline.service.slots);
  // Real-time sales display instantly: no violations, no excess.
  EXPECT_EQ(baseline.ledger.violated, 0);
  EXPECT_EQ(baseline.ledger.excess_displays, 0);
  EXPECT_EQ(baseline.ledger.billed, baseline.ledger.sold);
  EXPECT_GT(baseline.ledger.billed_revenue, 0.0);
}

TEST(BaselineTest, EnergyBreakdownMatchesMeasurementStudyShape) {
  const BaselineResult& baseline = SmallComparison().baseline;
  // The paper's measurement study: ads ~65% of communication energy, ~23%
  // of total app energy. Wide tolerances: this is a small population.
  EXPECT_NEAR(baseline.energy.AdShareOfComm(), 0.65, 0.10);
  EXPECT_NEAR(baseline.energy.AdShareOfTotal(), 0.23, 0.06);
}

TEST(PadRunTest, ServiceAccountingBalances) {
  const PadRunResult& pad = SmallComparison().pad;
  EXPECT_EQ(pad.service.served_from_cache + pad.service.fallback_fetches +
                pad.service.unfilled,
            pad.service.slots);
  EXPECT_GT(pad.service.served_from_cache, 0);
}

TEST(PadRunTest, LedgerAccountingBalances) {
  const PadRunResult& pad = SmallComparison().pad;
  const LedgerTotals& ledger = pad.ledger;
  // Every sale ends billed or violated once the final expiry sweep ran.
  EXPECT_EQ(ledger.billed + ledger.violated, ledger.sold);
  EXPECT_EQ(ledger.displays, ledger.billed + ledger.excess_displays);
  EXPECT_GE(ledger.sold, pad.impressions_sold);  // Fallback sales add more.
}

TEST(PadRunTest, SlotsMatchBaselineSlots) {
  // Both runners consume the same trace, so the slot count is identical.
  EXPECT_EQ(SmallComparison().pad.service.slots, SmallComparison().baseline.service.slots);
}

TEST(PadRunTest, HeadlineMetricsInPlausibleRange) {
  const Comparison& comparison = SmallComparison();
  EXPECT_GT(comparison.AdEnergySavings(), 0.30);
  EXPECT_LT(comparison.AdEnergySavings(), 0.95);
  EXPECT_LT(comparison.pad.ledger.SlaViolationRate(), 0.12);
  EXPECT_LT(comparison.pad.ledger.RevenueLossRate(), 0.12);
  EXPECT_GT(comparison.RevenueRatio(), 0.85);
  EXPECT_GE(comparison.pad.MeanReplication(), 1.0);
  EXPECT_LT(comparison.pad.MeanReplication(), 3.0);
}

TEST(PadRunTest, PrefetchTrafficReplacesMostAdFetches) {
  const Comparison& comparison = SmallComparison();
  const EnergyReport& pad_radio = comparison.pad.energy.radio;
  const EnergyReport& baseline_radio = comparison.baseline.energy.radio;
  EXPECT_LT(pad_radio.For(TrafficCategory::kAdFetch).transfers,
            baseline_radio.For(TrafficCategory::kAdFetch).transfers / 2);
  EXPECT_GT(pad_radio.For(TrafficCategory::kAdPrefetch).transfers, 0);
  EXPECT_EQ(baseline_radio.For(TrafficCategory::kAdPrefetch).transfers, 0);
}

TEST(PadRunTest, AppContentTrafficIdenticalButPaysOwnPromotions) {
  // PAD does not change the app's own traffic (same bytes, same transfer
  // count), but once ads stop keeping the radio hot, content transfers pay
  // promotions the baseline's ad chatter used to absorb — so content energy
  // goes UP even as ad energy collapses. The local (CPU/display) energy is
  // untouched.
  const Comparison& comparison = SmallComparison();
  const CategoryEnergy& baseline_content =
      comparison.baseline.energy.radio.For(TrafficCategory::kAppContent);
  const CategoryEnergy& pad_content =
      comparison.pad.energy.radio.For(TrafficCategory::kAppContent);
  EXPECT_DOUBLE_EQ(pad_content.bytes, baseline_content.bytes);
  EXPECT_EQ(pad_content.transfers, baseline_content.transfers);
  EXPECT_GE(pad_content.transfer_j, baseline_content.transfer_j);
  EXPECT_LT(pad_content.transfer_j, 2.0 * baseline_content.transfer_j);
  EXPECT_DOUBLE_EQ(comparison.pad.energy.local_j, comparison.baseline.energy.local_j);
}

TEST(PadRunTest, DeterministicAcrossRuns) {
  PadConfig config = QuickConfig();
  config.population.num_users = 25;
  const Comparison a = RunComparison(config);
  const Comparison b = RunComparison(config);
  EXPECT_DOUBLE_EQ(a.pad.energy.radio.total_energy_j(), b.pad.energy.radio.total_energy_j());
  EXPECT_EQ(a.pad.ledger.billed, b.pad.ledger.billed);
  EXPECT_EQ(a.pad.impressions_dispatched, b.pad.impressions_dispatched);
  EXPECT_DOUBLE_EQ(a.baseline.ledger.billed_revenue, b.baseline.ledger.billed_revenue);
}

TEST(PadRunTest, SeedChangesRun) {
  PadConfig config = QuickConfig();
  config.population.num_users = 25;
  const Comparison a = RunComparison(config);
  config.population.seed = 777;
  const Comparison b = RunComparison(config);
  EXPECT_NE(a.pad.service.slots, b.pad.service.slots);
}

TEST(QuickConfigTest, RunsFastAndNonTrivially) {
  const PadConfig config = QuickConfig();
  EXPECT_GT(config.population.num_users, 0);
  EXPECT_GT(config.population.horizon_s, config.WarmupS());
  const Comparison comparison = RunComparison(config);
  EXPECT_GT(comparison.pad.service.slots, 1000);
  EXPECT_GT(comparison.pad.scored_days, 0.0);
}

}  // namespace
}  // namespace pad
