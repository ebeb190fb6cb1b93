#include "src/prediction/slot_series.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/units.h"

namespace pad {

int SlotSeries::WindowsPerDay() const {
  PAD_CHECK(window_s > 0.0);
  const double exact = kDay / window_s;
  const int windows = static_cast<int>(std::lround(exact));
  PAD_CHECK_MSG(std::fabs(exact - windows) < 1e-9 && windows >= 1,
                "prediction window must divide a day evenly");
  return windows;
}

int64_t SlotSeries::TotalSlots() const {
  int64_t total = 0;
  for (int c : counts) {
    total += c;
  }
  return total;
}

SlotSeries BinSlots(std::span<const SlotEvent> slots, double horizon_s, double window_s) {
  PAD_CHECK(window_s > 0.0);
  PAD_CHECK(horizon_s > 0.0);
  SlotSeries series;
  series.window_s = window_s;
  const int num_windows = static_cast<int>(std::ceil(horizon_s / window_s));
  series.counts.assign(static_cast<size_t>(num_windows), 0);
  for (const SlotEvent& slot : slots) {
    const int w = static_cast<int>(slot.time / window_s);
    if (w >= 0 && w < num_windows) {
      ++series.counts[static_cast<size_t>(w)];
    }
  }
  return series;
}

}  // namespace pad
