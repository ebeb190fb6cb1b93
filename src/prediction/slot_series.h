// Slot time series: ad-slot counts binned into fixed prediction windows.
//
// The PAD client predicts "how many ad slots will I have in the next T
// seconds?". Binning a user's slot stream into windows of length T produces
// the integer series the predictors train and are scored on.
#ifndef ADPAD_SRC_PREDICTION_SLOT_SERIES_H_
#define ADPAD_SRC_PREDICTION_SLOT_SERIES_H_

#include <span>
#include <vector>

#include "src/apps/workload.h"

namespace pad {

struct SlotSeries {
  double window_s = 0.0;
  std::vector<int> counts;  // counts[w] = slots in [w*T, (w+1)*T).

  int num_windows() const { return static_cast<int>(counts.size()); }

  // Windows per day; requires T to divide a day evenly (the time-of-day
  // predictors depend on window w and w + windows_per_day covering the same
  // hours). Aborts otherwise.
  int WindowsPerDay() const;

  int64_t TotalSlots() const;
};

// Bins a user's slot events. The horizon is rounded up to a whole number of
// windows; slots at or past the horizon are dropped.
SlotSeries BinSlots(std::span<const SlotEvent> slots, double horizon_s, double window_s);

}  // namespace pad

#endif  // ADPAD_SRC_PREDICTION_SLOT_SERIES_H_
