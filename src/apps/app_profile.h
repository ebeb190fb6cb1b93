// App behaviour profiles.
//
// The paper's measurement study instruments the top-15 free Windows Phone
// apps; we cannot ship those, so AppCatalog::TopFifteen() provides fifteen
// archetypal ad-supported apps whose traffic mixes are calibrated so the
// aggregate reproduces the study's headline shares (ads ≈ 65% of
// communication energy, ≈ 23% of total energy on 3G; see E1).
//
// The model of an ad-supported app, matching the Microsoft Ad Control
// behaviour described in the paper: one banner request at app launch, then a
// refresh every `ad_refresh_s` while the app stays in the foreground. Each
// refresh is an *ad slot* — a display opportunity the ad system sells.
#ifndef ADPAD_SRC_APPS_APP_PROFILE_H_
#define ADPAD_SRC_APPS_APP_PROFILE_H_

#include <string>
#include <vector>

namespace pad {

struct AppProfile {
  int app_id = 0;
  std::string name;
  std::string genre;  // "game", "news", "social", "tool", ...

  bool has_ads = true;
  double ad_refresh_s = 30.0;  // Banner refresh period while foregrounded.
  double ad_bytes = 3.0 * 1024;  // Banner payload (request + creative).

  double launch_bytes = 20.0 * 1024;   // Content fetched at session start.
  double content_period_s = 0.0;       // Periodic content fetch (0 = none).
  double content_bytes = 0.0;

  // Non-radio power (CPU + display attributable to the app) while the app is
  // foregrounded; used for the "total app energy" denominator in E1.
  double local_power_w = 0.9;
};

class AppCatalog {
 public:
  explicit AppCatalog(std::vector<AppProfile> apps);

  // Fifteen archetypal free apps: casual games (little content traffic, so
  // ads dominate their radio energy), news/social (content-heavy), and
  // tools/utilities (nearly no content traffic).
  static AppCatalog TopFifteen();

  const AppProfile& Get(int app_id) const;
  int size() const { return static_cast<int>(apps_.size()); }
  const std::vector<AppProfile>& apps() const { return apps_; }

 private:
  std::vector<AppProfile> apps_;
};

}  // namespace pad

#endif  // ADPAD_SRC_APPS_APP_PROFILE_H_
