// Result types for the end-to-end experiments: energy, service quality, and
// revenue accounting for a baseline or PAD run, plus the paired comparison
// every headline number comes from.
#ifndef ADPAD_SRC_CORE_METRICS_H_
#define ADPAD_SRC_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <type_traits>

#include "src/auction/ledger.h"
#include "src/radio/machine.h"

namespace pad {

// Population-aggregate energy, split by what the joules bought.
struct EnergyBreakdown {
  EnergyReport radio;     // All radio energy, attributed by TrafficCategory.
  double local_j = 0.0;   // CPU + display energy while apps foregrounded.

  // Energy of the advertising machinery: on-demand fetches, bulk prefetches,
  // and slot-report uploads, including the radio tails they caused. This is
  // the paper's "ad energy overhead".
  double AdEnergyJ() const;
  double CommEnergyJ() const { return radio.total_energy_j(); }
  double TotalJ() const { return CommEnergyJ() + local_j; }

  // Ads' share of communication energy (the paper's 65% number) and of total
  // energy (the 23% number).
  double AdShareOfComm() const;
  double AdShareOfTotal() const;

  // Accumulates another population's energy (shard merge).
  void Merge(const EnergyBreakdown& other);
};

// How ad slots got filled.
struct ServiceStats {
  int64_t slots = 0;             // Display opportunities that occurred.
  int64_t served_from_cache = 0; // Filled by a prefetched ad (no radio wakeup).
  int64_t fallback_fetches = 0;  // Cache empty: on-demand fetch like baseline.
  int64_t unfilled = 0;          // No cached ad and no demand at auction.
  int64_t expired_cache_drops = 0;  // Cached replicas discarded past deadline.

  double CacheHitRate() const {
    return slots > 0 ? static_cast<double>(served_from_cache) / static_cast<double>(slots) : 0.0;
  }

  void Merge(const ServiceStats& other);
};

struct BaselineResult {
  EnergyBreakdown energy;
  LedgerTotals ledger;
  ServiceStats service;
  double scored_days = 0.0;

  // Folds another shard's result into this one. Counters and energy sum;
  // scored_days must agree (every shard scores the same horizon).
  void Merge(const BaselineResult& other);
};

// What the fault-injection layer (core/faults.h) actually did to a PAD run.
// All zero when faults are disabled.
struct FaultStats {
  int64_t reports_dropped = 0;   // Slot reports lost in transit.
  int64_t reports_delayed = 0;   // Slot reports that arrived one window late.
  int64_t stale_windows = 0;     // Client-windows the server ran on a stale view.
  int64_t fetch_failures = 0;    // Bundle download attempts that failed.
  int64_t fetch_retries = 0;     // Attempts that were retries of a failed fetch.
  int64_t bundles_abandoned = 0; // Pending replicas dropped after the retry budget.
  int64_t syncs_missed = 0;      // Client-epochs whose invalidations were lost.
  int64_t offline_epochs = 0;    // Client-epochs offline at sale time (no dispatch).
  int64_t offline_fetch_misses = 0;  // Fallback fetches suppressed while offline.
  int64_t offline_violations = 0;    // Violations with >= 1 holder offline at expiry.

  void Merge(const FaultStats& other);
};

// One bucket of the overbooking model's calibration curve: impressions whose
// planned success probability fell in [lo, hi), and how many were actually
// billed before their deadline.
struct CalibrationBucket {
  int64_t planned = 0;
  int64_t delivered = 0;
  double sum_predicted = 0.0;

  double PredictedRate() const {
    return planned > 0 ? sum_predicted / static_cast<double>(planned) : 0.0;
  }
  double RealizedRate() const {
    return planned > 0 ? static_cast<double>(delivered) / static_cast<double>(planned) : 0.0;
  }
};
inline constexpr int kCalibrationBuckets = 10;

struct PadRunResult {
  EnergyBreakdown energy;
  LedgerTotals ledger;
  ServiceStats service;
  double scored_days = 0.0;

  // Calibration of the dispatch-time success model (bucket i covers
  // predicted probability [i/10, (i+1)/10)). Realized rates include the
  // rescue pass, so under-predicted buckets landing *above* the diagonal is
  // the designed behaviour.
  std::array<CalibrationBucket, kCalibrationBuckets> calibration{};

  int64_t impressions_dispatched = 0;  // Replica copies pushed to clients.
  int64_t impressions_sold = 0;

  // Fault-injection accounting (all zero in fault-free runs).
  FaultStats faults;
  double MeanReplication() const {
    return impressions_sold > 0
               ? static_cast<double>(impressions_dispatched) / static_cast<double>(impressions_sold)
               : 0.0;
  }

  // Folds another shard's result into this one (see BaselineResult::Merge).
  void Merge(const PadRunResult& other);
};

// Paired baseline/PAD run on the same trace and campaign stream.
struct Comparison {
  BaselineResult baseline;
  PadRunResult pad;

  // Headline metric: fraction of the baseline's ad energy that PAD removed.
  double AdEnergySavings() const;
  // Revenue under PAD relative to the baseline's billed revenue (1.0 = parity).
  double RevenueRatio() const;
};

// Calls f(field) for every metric field of a BaselineResult or PadRunResult
// (const or not), in one fixed order: energy, ledger, service, scored_days,
// then for PAD runs the calibration curve, the impression counters and the
// fault counters. Fields are doubles or int64_t. This order *is* the
// checkpoint journal's record layout and the MetricsDigest input, so
// appending a field changes both and reordering breaks every existing
// journal and golden digest.
template <class R, class F>
void VisitMetrics(R& result, F&& f) {
  for (auto& category : result.energy.radio.by_category) {
    f(category.transfer_j);
    f(category.tail_j);
    f(category.bytes);
    f(category.transfers);
  }
  f(result.energy.radio.promo_time_s);
  f(result.energy.radio.active_time_s);
  f(result.energy.radio.tail_time_s);
  f(result.energy.local_j);

  auto& ledger = result.ledger;
  f(ledger.sold);
  f(ledger.billed);
  f(ledger.violated);
  f(ledger.excess_displays);
  f(ledger.displays);
  f(ledger.billed_revenue);
  f(ledger.violated_value);

  auto& service = result.service;
  f(service.slots);
  f(service.served_from_cache);
  f(service.fallback_fetches);
  f(service.unfilled);
  f(service.expired_cache_drops);
  f(result.scored_days);

  if constexpr (std::is_same_v<std::remove_const_t<R>, PadRunResult>) {
    for (auto& bucket : result.calibration) {
      f(bucket.planned);
      f(bucket.delivered);
      f(bucket.sum_predicted);
    }
    f(result.impressions_dispatched);
    f(result.impressions_sold);

    auto& faults = result.faults;
    f(faults.reports_dropped);
    f(faults.reports_delayed);
    f(faults.stale_windows);
    f(faults.fetch_failures);
    f(faults.fetch_retries);
    f(faults.bundles_abandoned);
    f(faults.syncs_missed);
    f(faults.offline_epochs);
    f(faults.offline_fetch_misses);
    f(faults.offline_violations);
  }
}

}  // namespace pad

#endif  // ADPAD_SRC_CORE_METRICS_H_
