#include "src/auction/ledger.h"

#include <gtest/gtest.h>

namespace pad {
namespace {

SoldImpression Impression(int64_t id, double price = 0.001, double sale = 0.0,
                          double deadline = 100.0) {
  return SoldImpression{id, /*campaign_id=*/1, price, sale, deadline};
}

TEST(LedgerTest, BilledOnFirstTimelyDisplay) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1, 0.002));
  EXPECT_TRUE(ledger.RecordDisplay(1, 50.0));
  const LedgerTotals& totals = ledger.totals();
  EXPECT_EQ(totals.sold, 1);
  EXPECT_EQ(totals.billed, 1);
  EXPECT_EQ(totals.excess_displays, 0);
  EXPECT_DOUBLE_EQ(totals.billed_revenue, 0.002);
}

TEST(LedgerTest, ReplicaDisplayIsExcess) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1));
  EXPECT_TRUE(ledger.RecordDisplay(1, 10.0));
  EXPECT_FALSE(ledger.RecordDisplay(1, 20.0));  // Second replica shows too.
  EXPECT_EQ(ledger.totals().billed, 1);
  EXPECT_EQ(ledger.totals().excess_displays, 1);
  EXPECT_EQ(ledger.totals().displays, 2);
}

TEST(LedgerTest, LateDisplayIsExcessNotBilled) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1, 0.001, 0.0, 100.0));
  EXPECT_FALSE(ledger.RecordDisplay(1, 150.0));
  EXPECT_EQ(ledger.totals().billed, 0);
  EXPECT_EQ(ledger.totals().excess_displays, 1);
  // The sale itself still expires into a violation.
  ledger.ExpireDeadlines(200.0);
  EXPECT_EQ(ledger.totals().violated, 1);
}

TEST(LedgerTest, DisplayAtDeadlineBoundaryBills) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1, 0.001, 0.0, 100.0));
  EXPECT_TRUE(ledger.RecordDisplay(1, 100.0));  // Exactly at the deadline.
}

TEST(LedgerTest, ExpireMarksViolations) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1, 0.003, 0.0, 100.0));
  ledger.RecordSale(Impression(2, 0.001, 0.0, 200.0));
  ledger.ExpireDeadlines(150.0);
  EXPECT_EQ(ledger.totals().violated, 1);
  EXPECT_DOUBLE_EQ(ledger.totals().violated_value, 0.003);
  EXPECT_EQ(ledger.open_impressions(), 1);
  ledger.ExpireDeadlines(1e9);
  EXPECT_EQ(ledger.totals().violated, 2);
  EXPECT_EQ(ledger.open_impressions(), 0);
}

TEST(LedgerTest, DisplayOfUnknownImpressionIsExcess) {
  RevenueLedger ledger;
  EXPECT_FALSE(ledger.RecordDisplay(999, 10.0));
  EXPECT_EQ(ledger.totals().excess_displays, 1);
}

TEST(LedgerTest, RatesComputeCorrectly) {
  RevenueLedger ledger;
  for (int64_t id = 1; id <= 10; ++id) {
    ledger.RecordSale(Impression(id, 0.001, 0.0, 100.0));
  }
  for (int64_t id = 1; id <= 8; ++id) {
    ledger.RecordDisplay(id, 50.0);
  }
  ledger.RecordDisplay(3, 60.0);  // One duplicate.
  ledger.ExpireDeadlines(1e9);
  const LedgerTotals& totals = ledger.totals();
  EXPECT_DOUBLE_EQ(totals.SlaViolationRate(), 0.2);      // 2 of 10 missed.
  EXPECT_DOUBLE_EQ(totals.RevenueLossRate(), 1.0 / 9.0);  // 1 of 9 displays wasted.
}

TEST(LedgerTest, EmptyLedgerRatesAreZero) {
  const LedgerTotals totals;
  EXPECT_DOUBLE_EQ(totals.SlaViolationRate(), 0.0);
  EXPECT_DOUBLE_EQ(totals.RevenueLossRate(), 0.0);
}

TEST(LedgerTest, TakeRecentlyBilledDrains) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1));
  ledger.RecordSale(Impression(2));
  ledger.RecordDisplay(1, 10.0);
  ledger.RecordDisplay(2, 20.0);
  const auto billed = ledger.TakeRecentlyBilled();
  ASSERT_EQ(billed.size(), 2u);
  EXPECT_EQ(billed[0], 1);
  EXPECT_EQ(billed[1], 2);
  EXPECT_TRUE(ledger.TakeRecentlyBilled().empty());
}

TEST(LedgerTest, ViolatedImpressionDoesNotAppearInRecentlyBilled) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1, 0.001, 0.0, 100.0));
  ledger.ExpireDeadlines(1e9);
  EXPECT_TRUE(ledger.TakeRecentlyBilled().empty());
}

TEST(LedgerDeathTest, DuplicateSaleAborts) {
  RevenueLedger ledger;
  ledger.RecordSale(Impression(1));
  EXPECT_DEATH(ledger.RecordSale(Impression(1)), "duplicate");
}

}  // namespace
}  // namespace pad
