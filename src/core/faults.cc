#include "src/core/faults.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace pad {

double DetHashUniform(uint64_t seed, uint64_t channel, int64_t a, int64_t b) {
  uint64_t state = seed + kSplitMix64Gamma * channel;
  state = Mix64(state + kSplitMix64Gamma * static_cast<uint64_t>(a));
  state = Mix64(state + kSplitMix64Gamma * static_cast<uint64_t>(b));
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

FaultPlan::FaultPlan(const FaultConfig& config, uint64_t seed)
    : config_(config),
      // Domain-separate from every other consumer of config.seed.
      seed_(Mix64(seed ^ 0xfa017571a57a11ull)),
      enabled_(config.AnyEnabled()) {}

double FaultPlan::Draw(Channel channel, int64_t client_id, int64_t index) const {
  return DetHashUniform(seed_, static_cast<uint64_t>(channel), client_id, index);
}

ReportFate FaultPlan::ReportFateFor(int client_id, int64_t window) const {
  if (!enabled_) {
    return ReportFate::kDelivered;
  }
  const double u = Draw(Channel::kReport, client_id, window);
  if (u < config_.report_drop_rate) {
    return ReportFate::kDropped;
  }
  if (u < config_.report_drop_rate + config_.report_delay_rate) {
    return ReportFate::kDelayed;
  }
  return ReportFate::kDelivered;
}

bool FaultPlan::FetchFails(int client_id, int64_t attempt) const {
  return enabled_ && Draw(Channel::kFetch, client_id, attempt) < config_.fetch_failure_rate;
}

bool FaultPlan::SyncMissed(int client_id, int64_t epoch) const {
  return enabled_ && Draw(Channel::kSync, client_id, epoch) < config_.sync_miss_rate;
}

bool FaultPlan::OfflineAt(int client_id, double time) const {
  if (!enabled_ || config_.offline_rate <= 0.0) {
    return false;
  }
  PAD_DCHECK(config_.offline_window_s > 0.0);
  const int64_t window = static_cast<int64_t>(std::floor(time / config_.offline_window_s));
  return Draw(Channel::kOffline, client_id, window) < config_.offline_rate;
}

}  // namespace pad
