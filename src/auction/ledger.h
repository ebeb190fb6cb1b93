// Revenue ledger: the accounting backend for both the baseline and the PAD
// ad server. Tracks every sold impression from sale to one of three ends:
//
//   billed    — displayed on some client before its deadline (earns revenue);
//   violated  — its deadline passed with no display (the paper's *SLA
//               violation*: the advertiser was promised a timely impression);
//   excess    — a display that could not be billed: a replica of an already-
//               billed impression, or a display after the deadline. Excess
//               displays consume client ad slots that could have been sold to
//               someone else — the paper's *revenue loss*.
#ifndef ADPAD_SRC_AUCTION_LEDGER_H_
#define ADPAD_SRC_AUCTION_LEDGER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/auction/ledger_observer.h"

namespace pad {

struct SoldImpression {
  int64_t impression_id = 0;
  int64_t campaign_id = 0;
  double price = 0.0;      // Clearing price, dollars.
  double sale_time = 0.0;
  double deadline = 0.0;   // Absolute time by which it must display.
  // Carried from the campaign so the dispatcher can honor targeting and
  // per-user diversity without a campaign lookup.
  uint32_t segment_mask = 0xffffffffu;
  int frequency_cap_per_day = 0;
};

struct LedgerTotals {
  int64_t sold = 0;
  int64_t billed = 0;
  int64_t violated = 0;
  int64_t excess_displays = 0;
  int64_t displays = 0;     // billed + excess.
  double billed_revenue = 0.0;
  double violated_value = 0.0;  // Clearing value of violated impressions.

  // Fraction of sold impressions that missed their deadline.
  double SlaViolationRate() const;
  // Fraction of consumed client slots that earned nothing. This is the
  // paper's revenue-loss metric: every excess display occupied a slot the
  // exchange could have sold.
  double RevenueLossRate() const;

  // Accumulates another ledger's totals (shard merge).
  void Merge(const LedgerTotals& other);
};

class RevenueLedger {
 public:
  // Registers a sale. Impression ids must be unique.
  void RecordSale(const SoldImpression& impression);

  // Records that `impression_id` was displayed at `time` on some client.
  // Returns true if the display billed (first display, within deadline).
  // Later replicas and post-deadline displays count as excess.
  bool RecordDisplay(int64_t impression_id, double time);

  // Sweeps impressions whose deadline is at or before `now` and are still
  // undisplayed, marking them violated. Call with +infinity at end of run.
  void ExpireDeadlines(double now);

  const LedgerTotals& totals() const { return totals_; }

  // Drains the impressions billed since the previous call. The PAD server
  // uses this at sync points to invalidate redundant replicas on clients.
  std::vector<int64_t> TakeRecentlyBilled();

  // Optional instrumentation hook; must outlive the ledger. Null disables.
  void set_observer(LedgerObserver* observer) { observer_ = observer; }

  // Outstanding (sold, not yet billed or violated) impressions.
  int64_t open_impressions() const { return static_cast<int64_t>(open_.size()); }

 private:
  struct Open {
    int64_t campaign_id;
    double price;
    double deadline;
  };

  LedgerObserver* observer_ = nullptr;

  std::unordered_map<int64_t, Open> open_;
  std::vector<int64_t> recently_billed_;
  LedgerTotals totals_;
};

}  // namespace pad

#endif  // ADPAD_SRC_AUCTION_LEDGER_H_
