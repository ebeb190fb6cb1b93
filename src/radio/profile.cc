#include "src/radio/profile.h"

#include "src/common/check.h"
#include "src/common/units.h"

namespace pad {

double RadioProfile::TransferDuration(double bytes, bool uplink) const {
  PAD_DCHECK(bytes >= 0.0);
  const double rate = uplink ? uplink_bps : downlink_bps;
  PAD_CHECK_MSG(rate > 0.0, "profile has no data rate for this direction");
  return rtt_s + bytes * 8.0 / rate;
}

double RadioProfile::TotalTailDuration() const {
  double total = 0.0;
  for (const TailPhase& phase : tail) {
    total += phase.duration_s;
  }
  return total;
}

double RadioProfile::TotalTailEnergy() const {
  double total = 0.0;
  for (const TailPhase& phase : tail) {
    total += phase.power_w * phase.duration_s;
  }
  return total;
}

double RadioProfile::IsolatedTransferEnergy(double bytes, bool uplink) const {
  const double promo = promo_power_w * promo_latency_s;
  const double active = active_power_w * TransferDuration(bytes, uplink);
  return promo + active + TotalTailEnergy();
}

void RadioProfile::Validate() const {
  PAD_CHECK(promo_latency_s >= 0.0);
  PAD_CHECK(promo_power_w >= 0.0);
  PAD_CHECK(active_power_w >= 0.0);
  PAD_CHECK(downlink_bps > 0.0);
  PAD_CHECK(uplink_bps > 0.0);
  PAD_CHECK(rtt_s >= 0.0);
  for (const TailPhase& phase : tail) {
    PAD_CHECK(phase.power_w >= 0.0);
    PAD_CHECK(phase.duration_s >= 0.0);
    PAD_CHECK(phase.resume_latency_s >= 0.0);
  }
}

RadioProfile ThreeGProfile() {
  RadioProfile profile;
  profile.name = "3g";
  profile.promo_latency_s = 2.0;
  profile.promo_power_w = 550 * kMilliwatt;
  profile.active_power_w = 800 * kMilliwatt;
  profile.downlink_bps = 1.5e6;
  profile.uplink_bps = 0.5e6;
  profile.rtt_s = 0.2;
  profile.tail = {
      {.name = "dch_tail", .power_w = 800 * kMilliwatt, .duration_s = 5.0,
       .resume_latency_s = 0.0},
      {.name = "fach_tail", .power_w = 460 * kMilliwatt, .duration_s = 12.0,
       .resume_latency_s = 1.5},
  };
  profile.Validate();
  return profile;
}

RadioProfile LteProfile() {
  RadioProfile profile;
  profile.name = "lte";
  profile.promo_latency_s = 0.26;
  profile.promo_power_w = 1200 * kMilliwatt;
  profile.active_power_w = 1200 * kMilliwatt;
  profile.downlink_bps = 12e6;
  profile.uplink_bps = 5e6;
  profile.rtt_s = 0.07;
  profile.tail = {
      {.name = "drx_tail", .power_w = 1000 * kMilliwatt, .duration_s = 10.0,
       .resume_latency_s = 0.0},
  };
  profile.Validate();
  return profile;
}

RadioProfile WifiProfile() {
  RadioProfile profile;
  profile.name = "wifi";
  profile.promo_latency_s = 0.0;
  profile.promo_power_w = 0.0;
  profile.active_power_w = 700 * kMilliwatt;
  profile.downlink_bps = 8e6;
  profile.uplink_bps = 8e6;
  profile.rtt_s = 0.05;
  profile.tail = {
      {.name = "psm_tail", .power_w = 400 * kMilliwatt, .duration_s = 0.2,
       .resume_latency_s = 0.0},
  };
  profile.Validate();
  return profile;
}

RadioProfile IdealProfile() {
  RadioProfile profile;
  profile.name = "ideal";
  profile.promo_latency_s = 0.0;
  profile.promo_power_w = 0.0;
  profile.active_power_w = 800 * kMilliwatt;
  profile.downlink_bps = 1.5e6;
  profile.uplink_bps = 0.5e6;
  profile.rtt_s = 0.0;
  profile.tail = {};
  profile.Validate();
  return profile;
}

}  // namespace pad
