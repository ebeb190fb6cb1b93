#include "src/core/event_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

#include "src/common/csv.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"

namespace pad {
namespace {

TEST(EventLogTest, RecordsAndCounts) {
  EventLog log;
  log.OnSale(10.0, 1, 100, 0.002);
  log.OnDispatch(10.0, 1, 100, 7, /*rescue=*/false);
  log.OnDispatch(11.0, 1, 100, 8, /*rescue=*/true);
  log.OnBilledDisplay(20.0, 1, 100, 0.002);
  log.OnExcessDisplay(25.0, 1);
  log.OnViolation(30.0, 2, 100, 0.001);

  EXPECT_EQ(log.events().size(), 6u);
  EXPECT_EQ(log.CountOf(SimEventType::kSale), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kDispatch), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kRescue), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kBilledDisplay), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kExcessDisplay), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kViolation), 1);
}

TEST(EventLogTest, CsvExportRoundTrips) {
  EventLog log;
  log.OnSale(10.5, 1, 100, 0.002);
  log.OnBilledDisplay(20.0, 1, 100, 0.002);
  std::ostringstream out;
  log.WriteCsv(out);
  std::string error;
  const std::optional<CsvTable> table = TryParseCsv(out.str(), &error);
  ASSERT_TRUE(table.has_value()) << error;
  ASSERT_EQ(table->rows.size(), 2u);
  const auto column = [&table](const std::string& name) {
    const auto it = std::find(table->header.begin(), table->header.end(), name);
    EXPECT_NE(it, table->header.end()) << name;
    return static_cast<size_t>(it - table->header.begin());
  };
  EXPECT_EQ(table->rows[0][column("type")], "sale");
  EXPECT_DOUBLE_EQ(std::stod(table->rows[0][column("time")]), 10.5);
  EXPECT_EQ(table->rows[1][column("type")], "billed_display");
}

TEST(EventLogTest, ByHourOfDayBuckets) {
  EventLog log;
  log.OnViolation(2.5 * kHour, 1, 100, 0.0);
  log.OnViolation(kDay + 2.9 * kHour, 2, 100, 0.0);
  log.OnViolation(15.0 * kHour, 3, 100, 0.0);
  const auto histogram = log.ByHourOfDay(SimEventType::kViolation);
  EXPECT_EQ(histogram[2], 2);
  EXPECT_EQ(histogram[15], 1);
  EXPECT_EQ(histogram[0], 0);
}

TEST(EventLogTest, PerCampaignOutcomes) {
  EventLog log;
  log.OnSale(1.0, 1, 100, 0.002);
  log.OnSale(2.0, 2, 100, 0.002);
  log.OnSale(3.0, 3, 200, 0.001);
  log.OnBilledDisplay(5.0, 1, 100, 0.002);
  log.OnViolation(10.0, 2, 100, 0.002);
  const auto outcomes = log.PerCampaign();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes.at(100).sold, 2);
  EXPECT_EQ(outcomes.at(100).billed, 1);
  EXPECT_EQ(outcomes.at(100).violated, 1);
  EXPECT_DOUBLE_EQ(outcomes.at(100).FillRate(), 0.5);
  EXPECT_DOUBLE_EQ(outcomes.at(100).revenue, 0.002);
  EXPECT_EQ(outcomes.at(200).sold, 1);
  EXPECT_DOUBLE_EQ(outcomes.at(200).FillRate(), 0.0);
}

TEST(EventLogIntegrationTest, LogAgreesWithLedgerTotals) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  const SimInputs inputs = GenerateInputs(config);
  EventLog log;
  const PadRunResult pad = RunPad(config, inputs, &log);

  EXPECT_EQ(log.CountOf(SimEventType::kSale), pad.ledger.sold);
  EXPECT_EQ(log.CountOf(SimEventType::kBilledDisplay), pad.ledger.billed);
  EXPECT_EQ(log.CountOf(SimEventType::kExcessDisplay), pad.ledger.excess_displays);
  EXPECT_EQ(log.CountOf(SimEventType::kViolation), pad.ledger.violated);
  EXPECT_EQ(log.CountOf(SimEventType::kDispatch) + log.CountOf(SimEventType::kRescue),
            pad.impressions_dispatched);

  // Revenue reconstructed from billed events matches the ledger.
  double revenue = 0.0;
  for (const SimEvent& event : log.events()) {
    if (event.type == SimEventType::kBilledDisplay) {
      revenue += event.value;
    }
  }
  EXPECT_NEAR(revenue, pad.ledger.billed_revenue, 1e-9);
}

TEST(EventLogIntegrationTest, RescueEventsMatchServerCounter) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  config.rescue_threshold = 1.0 - 1e-12;  // Rescue aggressively.
  const SimInputs inputs = GenerateInputs(config);
  EventLog log;
  (void)RunPad(config, inputs, &log);
  EXPECT_GT(log.CountOf(SimEventType::kRescue), 0);
}

}  // namespace
}  // namespace pad
