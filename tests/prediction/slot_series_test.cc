#include "src/prediction/slot_series.h"

#include <gtest/gtest.h>

#include "src/common/units.h"

namespace pad {
namespace {

SlotEvent Slot(double t) { return SlotEvent{0, 0, t}; }

TEST(SlotSeriesTest, BinsByWindow) {
  const std::vector<SlotEvent> slots = {Slot(0.0), Slot(10.0), Slot(3600.0), Slot(7300.0)};
  const SlotSeries series = BinSlots(slots, 3.0 * kHour, kHour);
  ASSERT_EQ(series.num_windows(), 3);
  EXPECT_EQ(series.counts[0], 2);
  EXPECT_EQ(series.counts[1], 1);
  EXPECT_EQ(series.counts[2], 1);
  EXPECT_EQ(series.TotalSlots(), 4);
}

TEST(SlotSeriesTest, DropsSlotsPastHorizon) {
  const std::vector<SlotEvent> slots = {Slot(0.0), Slot(2.0 * kHour + 1.0)};
  const SlotSeries series = BinSlots(slots, 2.0 * kHour, kHour);
  EXPECT_EQ(series.TotalSlots(), 1);
}

TEST(SlotSeriesTest, HorizonRoundsUpToWholeWindows) {
  const SlotSeries series = BinSlots({}, 90.0 * kMinute, kHour);
  EXPECT_EQ(series.num_windows(), 2);
}

TEST(SlotSeriesTest, WindowsPerDay) {
  EXPECT_EQ(BinSlots({}, kDay, kHour).WindowsPerDay(), 24);
  EXPECT_EQ(BinSlots({}, kDay, 3.0 * kHour).WindowsPerDay(), 8);
  EXPECT_EQ(BinSlots({}, kDay, kDay).WindowsPerDay(), 1);
}

TEST(SlotSeriesDeathTest, NonDividingWindowAborts) {
  const SlotSeries series = BinSlots({}, kDay, 7.0 * kHour);
  EXPECT_DEATH(series.WindowsPerDay(), "divide");
}

TEST(SlotSeriesTest, BoundarySlotGoesToLaterWindow) {
  const std::vector<SlotEvent> slots = {Slot(kHour)};
  const SlotSeries series = BinSlots(slots, 2.0 * kHour, kHour);
  EXPECT_EQ(series.counts[0], 0);
  EXPECT_EQ(series.counts[1], 1);
}

}  // namespace
}  // namespace pad
