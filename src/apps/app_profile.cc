#include "src/apps/app_profile.h"

#include "src/common/check.h"
#include "src/common/units.h"

namespace pad {

AppCatalog::AppCatalog(std::vector<AppProfile> apps) : apps_(std::move(apps)) {
  PAD_CHECK(!apps_.empty());
  for (size_t i = 0; i < apps_.size(); ++i) {
    PAD_CHECK_MSG(apps_[i].app_id == static_cast<int>(i),
                  "catalog app_ids must be dense and ordered");
  }
}

namespace {

AppProfile MakeApp(int id, std::string name, std::string genre, bool has_ads,
                   double ad_refresh_s, double launch_kib, double content_period_s,
                   double content_kib, double local_power_w) {
  AppProfile app;
  app.app_id = id;
  app.name = std::move(name);
  app.genre = std::move(genre);
  app.has_ads = has_ads;
  app.ad_refresh_s = ad_refresh_s;
  app.ad_bytes = 3.0 * kKiB;
  app.launch_bytes = launch_kib * kKiB;
  app.content_period_s = content_period_s;
  app.content_bytes = content_kib * kKiB;
  app.local_power_w = local_power_w;
  return app;
}

}  // namespace

AppCatalog AppCatalog::TopFifteen() {
  // Names are archetypes, not trademarks. Mix calibrated for E1: mostly
  // casual games and tools whose *own* traffic is small, so the recurring
  // 30 s ad refresh dominates their communication energy, plus a few
  // content-heavy apps that dilute the population-level ad share down to the
  // paper's ~65%.
  std::vector<AppProfile> apps;
  int id = 0;
  // Casual games: tiny launch config, little or no periodic content.
  apps.push_back(MakeApp(id++, "bird_toss", "game", true, 30.0, 6.0, 0.0, 0.0, 0.80));
  apps.push_back(MakeApp(id++, "gem_swap", "game", true, 30.0, 4.0, 0.0, 0.0, 0.75));
  apps.push_back(MakeApp(id++, "word_grid", "game", true, 30.0, 5.0, 0.0, 0.0, 0.70));
  apps.push_back(MakeApp(id++, "solitaire_plus", "game", true, 30.0, 3.0, 0.0, 0.0, 0.60));
  apps.push_back(MakeApp(id++, "tower_rush", "game", true, 30.0, 8.0, 90.0, 6.0, 0.90));
  // Tools/utilities: almost no content traffic at all.
  apps.push_back(MakeApp(id++, "flashlight_pro", "tool", true, 30.0, 1.0, 0.0, 0.0, 0.45));
  apps.push_back(MakeApp(id++, "unit_converter", "tool", true, 30.0, 1.0, 0.0, 0.0, 0.40));
  apps.push_back(MakeApp(id++, "barcode_scan", "tool", true, 30.0, 2.0, 180.0, 5.0, 0.70));
  apps.push_back(MakeApp(id++, "weather_now", "tool", true, 60.0, 15.0, 180.0, 8.0, 0.55));
  apps.push_back(MakeApp(id++, "radio_tuner", "media", true, 60.0, 10.0, 45.0, 60.0, 0.55));
  // News/social: content-heavy, ads a smaller share of their traffic.
  apps.push_back(MakeApp(id++, "headline_feed", "news", true, 45.0, 80.0, 45.0, 30.0, 0.65));
  apps.push_back(MakeApp(id++, "social_stream", "social", true, 45.0, 60.0, 40.0, 25.0, 0.75));
  apps.push_back(MakeApp(id++, "photo_share", "social", true, 60.0, 40.0, 45.0, 60.0, 0.75));
  apps.push_back(MakeApp(id++, "chat_now", "social", true, 60.0, 10.0, 30.0, 2.0, 0.60));
  apps.push_back(MakeApp(id++, "movie_times", "tool", true, 45.0, 30.0, 120.0, 10.0, 0.55));
  return AppCatalog(std::move(apps));
}

const AppProfile& AppCatalog::Get(int app_id) const {
  PAD_CHECK(app_id >= 0 && app_id < size());
  return apps_[static_cast<size_t>(app_id)];
}

}  // namespace pad
