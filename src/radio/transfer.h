// Network transfer descriptions fed to the radio energy model.
#ifndef ADPAD_SRC_RADIO_TRANSFER_H_
#define ADPAD_SRC_RADIO_TRANSFER_H_

#include <cstdint>

namespace pad {

// What a transfer is for. The measurement-study experiments (E1) attribute
// radio energy to these buckets; the PAD experiments (E5+) compare the energy
// of kAdFetch traffic against kAdPrefetch + kSlotReport traffic.
enum class TrafficCategory : uint8_t {
  kAdFetch = 0,     // On-demand ad download at display time (baseline path).
  kAdPrefetch = 1,  // Bulk ad download ahead of time (PAD path).
  kSlotReport = 2,  // Client -> server slot-prediction upload (PAD path).
  kAppContent = 3,  // The app's own traffic (news articles, game state, ...).
  kOther = 4,       // Anything else (analytics, OS background, ...).
};
inline constexpr int kNumTrafficCategories = 5;

enum class Direction : uint8_t {
  kDownlink = 0,
  kUplink = 1,
};

// A single network request/response. `request_time` is when the app asks for
// it; the radio model decides when it actually starts (transfers on one radio
// serialize) and how long it takes.
struct Transfer {
  double request_time = 0.0;
  double bytes = 0.0;
  Direction direction = Direction::kDownlink;
  TrafficCategory category = TrafficCategory::kOther;
};

}  // namespace pad

#endif  // ADPAD_SRC_RADIO_TRANSFER_H_
