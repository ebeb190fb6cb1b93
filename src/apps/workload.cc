#include "src/apps/workload.h"

#include <algorithm>

#include "src/common/check.h"

namespace pad {
namespace {

void ExpandSession(const AppProfile& app, const Session& session, const WorkloadOptions& options,
                   UserWorkload& out) {
  // Ad slots: one at launch, then one per completed refresh period.
  if (app.has_ads && app.ad_refresh_s > 0.0) {
    for (double t = session.start_time; t <= session.end_time() + 1e-9;
         t += app.ad_refresh_s) {
      out.slots.push_back(SlotEvent{session.user_id, session.app_id, t});
      if (options.on_demand_ads) {
        out.transfers.push_back(Transfer{.request_time = t,
                                         .bytes = app.ad_bytes,
                                         .direction = Direction::kDownlink,
                                         .category = TrafficCategory::kAdFetch});
      }
    }
  }

  if (options.app_content) {
    if (app.launch_bytes > 0.0) {
      out.transfers.push_back(Transfer{.request_time = session.start_time,
                                       .bytes = app.launch_bytes,
                                       .direction = Direction::kDownlink,
                                       .category = TrafficCategory::kAppContent});
    }
    if (app.content_period_s > 0.0 && app.content_bytes > 0.0) {
      for (double t = session.start_time + app.content_period_s; t <= session.end_time();
           t += app.content_period_s) {
        out.transfers.push_back(Transfer{.request_time = t,
                                         .bytes = app.content_bytes,
                                         .direction = Direction::kDownlink,
                                         .category = TrafficCategory::kAppContent});
      }
    }
  }

  out.foreground_s += session.duration_s;
  out.local_energy_j += app.local_power_w * session.duration_s;
}

}  // namespace

UserWorkload ExpandUser(const AppCatalog& catalog, const UserTrace& user,
                        const WorkloadOptions& options) {
  UserWorkload workload;
  ExpandUserInto(catalog, user, options, workload);
  return workload;
}

void ExpandUserInto(const AppCatalog& catalog, const UserTrace& user,
                    const WorkloadOptions& options, UserWorkload& out) {
  out.user_id = user.user_id;
  out.transfers.clear();
  out.slots.clear();
  out.foreground_s = 0.0;
  out.local_energy_j = 0.0;
  for (const Session& session : user.sessions) {
    if (session.start_time < options.min_session_start) {
      continue;
    }
    ExpandSession(catalog.Get(session.app_id), session, options, out);
  }
  std::sort(out.transfers.begin(), out.transfers.end(),
            [](const Transfer& a, const Transfer& b) { return a.request_time < b.request_time; });
  std::sort(out.slots.begin(), out.slots.end(),
            [](const SlotEvent& a, const SlotEvent& b) { return a.time < b.time; });
}

std::vector<SlotEvent> SlotsForUser(const AppCatalog& catalog, const UserTrace& user) {
  WorkloadOptions options;
  options.on_demand_ads = false;
  options.app_content = false;
  return ExpandUser(catalog, user, options).slots;
}

}  // namespace pad
