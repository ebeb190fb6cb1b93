#include "src/apps/app_profile.h"

#include <gtest/gtest.h>

#include "src/apps/workload.h"
#include "src/common/units.h"

namespace pad {
namespace {

// Ad slots that one foreground session of `duration_s` in `app` produces.
size_t SlotsInSession(AppProfile app, double duration_s) {
  app.app_id = 0;
  UserTrace user;
  user.sessions.push_back(Session{0, 0, 0.0, duration_s});
  return SlotsForUser(AppCatalog({app}), user).size();
}

TEST(AppProfileTest, SlotsInSessionCountsLaunchPlusRefreshes) {
  AppProfile app;
  app.has_ads = true;
  app.ad_refresh_s = 30.0;
  EXPECT_EQ(SlotsInSession(app, 0.0), 1u);  // Launch slot only.
  EXPECT_EQ(SlotsInSession(app, 29.9), 1u);
  EXPECT_EQ(SlotsInSession(app, 30.0), 2u);
  EXPECT_EQ(SlotsInSession(app, 89.0), 3u);
  EXPECT_EQ(SlotsInSession(app, 300.0), 11u);
}

TEST(AppProfileTest, NoAdsMeansNoSlots) {
  AppProfile app;
  app.has_ads = false;
  EXPECT_EQ(SlotsInSession(app, 1000.0), 0u);
}

TEST(AppCatalogTest, TopFifteenShape) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  EXPECT_EQ(catalog.size(), 15);
  for (int i = 0; i < catalog.size(); ++i) {
    const AppProfile& app = catalog.Get(i);
    EXPECT_EQ(app.app_id, i);
    EXPECT_FALSE(app.name.empty());
    EXPECT_FALSE(app.genre.empty());
    EXPECT_TRUE(app.has_ads);  // These are the top *free, ad-supported* apps.
    EXPECT_GE(app.ad_refresh_s, 30.0);
    EXPECT_LE(app.ad_refresh_s, 60.0);
    EXPECT_GT(app.ad_bytes, 0.0);
    EXPECT_GT(app.local_power_w, 0.0);
    EXPECT_LT(app.local_power_w, 2.0);
  }
}

TEST(AppCatalogTest, MixContainsContentLightAndContentHeavyApps) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  int no_periodic_content = 0;
  int heavy_content = 0;
  for (const AppProfile& app : catalog.apps()) {
    if (app.content_period_s <= 0.0) {
      ++no_periodic_content;
    }
    if (app.content_bytes >= 25.0 * kKiB) {
      ++heavy_content;
    }
  }
  // The E1 calibration depends on having both kinds.
  EXPECT_GE(no_periodic_content, 4);
  EXPECT_GE(heavy_content, 2);
}

TEST(AppCatalogDeathTest, OutOfRangeIdAborts) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  EXPECT_DEATH(catalog.Get(-1), "app_id");
  EXPECT_DEATH(catalog.Get(15), "app_id");
}

TEST(AppCatalogDeathTest, NonDenseIdsAbort) {
  AppProfile app;
  app.app_id = 5;
  EXPECT_DEATH(AppCatalog catalog({app}), "dense");
}

}  // namespace
}  // namespace pad
