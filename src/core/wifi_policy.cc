#include "src/core/wifi_policy.h"

#include <cmath>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace pad {
namespace {

// Cheap deterministic hash -> [0, 1) for per-user jitter.
double UnitHash(int client_id) {
  uint64_t state = static_cast<uint32_t>(client_id);
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

double WrapHour(double h) {
  h = std::fmod(h, 24.0);
  return h < 0.0 ? h + 24.0 : h;
}

}  // namespace

bool WifiAvailableAt(const WifiPolicy& policy, int client_id, double t) {
  if (!policy.enabled) {
    return false;
  }
  PAD_DCHECK(policy.jitter_h >= 0.0);
  const double jitter = (UnitHash(client_id) - 0.5) * 2.0 * policy.jitter_h;
  const double start = WrapHour(policy.home_start_h + jitter);
  const double end = WrapHour(policy.home_end_h + jitter);
  const double hour = HourOfDay(t);
  if (start <= end) {
    return hour >= start && hour < end;
  }
  // Window wraps midnight.
  return hour >= start || hour < end;
}

}  // namespace pad
