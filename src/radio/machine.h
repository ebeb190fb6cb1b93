// Event-driven radio energy state machine.
//
// One RadioMachine models one device's cellular/WiFi interface. Transfers are
// submitted in request-time order; the machine serializes them on the data
// plane, charges promotion/active/tail energy according to the profile, and
// attributes every joule to a TrafficCategory:
//
//   * promotion + active energy goes to the transfer being served;
//   * tail energy goes to the transfer that *caused* the tail (the most
//     recently completed one), truncated if new activity arrives mid-tail.
//
// This attribution is the standard one in the tail-energy literature and is
// what makes "ads are 65% of communication energy" a well-defined statement:
// an ad fetch that wakes an otherwise idle radio owns the whole tail it
// leaves behind.
#ifndef ADPAD_SRC_RADIO_MACHINE_H_
#define ADPAD_SRC_RADIO_MACHINE_H_

#include <array>
#include <span>

#include "src/radio/profile.h"
#include "src/radio/transfer.h"

namespace pad {

// Energy and traffic attributed to one TrafficCategory.
struct CategoryEnergy {
  double transfer_j = 0.0;  // Promotion + active energy.
  double tail_j = 0.0;      // Tail energy caused by this category's transfers.
  double bytes = 0.0;
  int64_t transfers = 0;

  double total_j() const { return transfer_j + tail_j; }
};

struct EnergyReport {
  std::array<CategoryEnergy, kNumTrafficCategories> by_category;

  // State residency (seconds).
  double promo_time_s = 0.0;
  double active_time_s = 0.0;
  double tail_time_s = 0.0;

  CategoryEnergy& For(TrafficCategory category) {
    return by_category[static_cast<size_t>(category)];
  }
  const CategoryEnergy& For(TrafficCategory category) const {
    return by_category[static_cast<size_t>(category)];
  }

  double total_energy_j() const;
  int64_t total_transfers() const;

  void Merge(const EnergyReport& other);
};

class RadioMachine {
 public:
  explicit RadioMachine(RadioProfile profile);

  struct Result {
    double start_time = 0.0;       // When bytes begin to move (after any ramp).
    double completion_time = 0.0;  // When the transfer finishes.
  };

  // Submits a transfer. Transfers must be submitted in non-decreasing
  // request-time order; a transfer requested while the radio is busy starts
  // when the data plane frees up. Must not be called after Finalize().
  Result Submit(const Transfer& transfer);

  // Batched fold: submits a whole sorted transfer sequence in one pass with
  // the machine state held in registers. Byte-identical to calling Submit on
  // each element in order (same floating-point operations in the same
  // order); the per-call ordering checks drop to debug-only.
  void SubmitAll(std::span<const Transfer> transfers);

  // Returns the machine to its post-construction state (zero report, idle
  // radio), keeping the profile. Lets one machine — and its validated
  // profile — be reused across users instead of re-copying the profile.
  void Reset();

  // Pays the tail outstanding after the last transfer, truncated at
  // `end_time` (>= the last completion time). Call exactly once, at the end
  // of the simulated horizon.
  void Finalize(double end_time);

  const EnergyReport& report() const { return report_; }
  const RadioProfile& profile() const { return profile_; }

  // Time at which the current/last data activity ends.
  double busy_until() const { return busy_until_; }

 private:
  // Charges the tail energy accrued in [busy_until_, until) to the category
  // of the last completed transfer. Returns the resume latency applicable at
  // `until` (promotion from idle, or the phase's resume latency).
  double PayTailAndGetResumeLatency(double until);

  RadioProfile profile_;
  EnergyReport report_;
  double busy_until_ = 0.0;
  double last_request_time_ = 0.0;
  bool has_activity_ = false;
  bool finalized_ = false;
  TrafficCategory last_category_ = TrafficCategory::kOther;
};

// Offline convenience: runs all transfers (must be sorted by request time)
// through a fresh machine and finalizes at `end_time` (or after the last tail
// if end_time is infinite).
EnergyReport SimulateTransfers(const RadioProfile& profile, std::span<const Transfer> transfers,
                               double end_time);

}  // namespace pad

#endif  // ADPAD_SRC_RADIO_MACHINE_H_
