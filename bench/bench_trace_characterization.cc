// E3 — Usage-trace characterization: the distributions the paper reports for
// its 1,700-user traces, computed on the synthetic population that stands in
// for them: sessions/day across users, session lengths, hour-of-day profile,
// ad slots per user-hour, and day-to-day regularity.
#include "bench/bench_util.h"

#include "src/apps/workload.h"
#include "src/prediction/slot_series.h"
#include "src/trace/generator.h"
#include "src/trace/trace_stats.h"

namespace pad {
namespace {

void Run(int num_users, bench::BenchJson& json) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationConfig config;
  config.num_users = num_users;
  config.horizon_s = 28.0 * kDay;
  config.num_apps = catalog.size();
  const Population population = GeneratePopulation(config);
  const TraceStats stats = ComputeTraceStats(population);

  PrintBanner(std::cout, "E3: population (" + std::to_string(num_users) + " users, 4 weeks)");
  TextTable overview({"metric", "value"});
  overview.AddRow({"users", std::to_string(stats.num_users)});
  overview.AddRow({"sessions", std::to_string(stats.num_sessions)});
  overview.AddRow({"mean sessions/user/day",
                   FormatDouble(stats.sessions_per_user_day.mean(), 1)});
  overview.AddRow({"median session length (s)",
                   FormatDouble(stats.session_duration_s.Median(), 0)});
  overview.Print(std::cout);

  PrintBanner(std::cout, "E3: CDF of sessions per user-day (user heterogeneity)");
  TextTable sessions_cdf({"percentile", "sessions_per_day"});
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    sessions_cdf.AddRow({FormatDouble(p, 0),
                         FormatDouble(stats.sessions_per_user_day.Percentile(p), 1)});
  }
  sessions_cdf.Print(std::cout);

  PrintBanner(std::cout, "E3: CDF of session duration (s)");
  TextTable duration_cdf({"percentile", "duration_s"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    duration_cdf.AddRow({FormatDouble(p, 0),
                         FormatDouble(stats.session_duration_s.Percentile(p), 0)});
  }
  duration_cdf.Print(std::cout);

  PrintBanner(std::cout, "E3: session starts by hour of day (diurnal profile)");
  TextTable hourly({"hour", "share"});
  for (int h = 0; h < 24; ++h) {
    hourly.AddRow({std::to_string(h), bench::Pct(stats.hourly_fraction[static_cast<size_t>(h)])});
  }
  hourly.Print(std::cout);

  // Slots per user-hour: the quantity the predictors forecast.
  SampleSet slots_per_active_hour;
  SampleSet daily_slots_per_user;
  SampleSet day_autocorrelation;
  for (const UserTrace& user : population.users) {
    const auto slots = SlotsForUser(catalog, user);
    const SlotSeries hourly_series = BinSlots(slots, population.horizon_s, kHour);
    for (int count : hourly_series.counts) {
      if (count > 0) {
        slots_per_active_hour.Add(count);
      }
    }
    daily_slots_per_user.Add(static_cast<double>(hourly_series.TotalSlots()) /
                             (population.horizon_s / kDay));
    day_autocorrelation.Add(DailyCountAutocorrelation(user, population.horizon_s, 1));
  }

  PrintBanner(std::cout, "E3: ad slots (display opportunities)");
  TextTable slots({"metric", "value"});
  slots.AddRow({"mean slots/user/day", FormatDouble(daily_slots_per_user.mean(), 1)});
  slots.AddRow({"p50 slots/user/day", FormatDouble(daily_slots_per_user.Median(), 1)});
  slots.AddRow({"p90 slots/user/day", FormatDouble(daily_slots_per_user.Percentile(90.0), 1)});
  slots.AddRow({"mean slots in an active hour", FormatDouble(slots_per_active_hour.mean(), 1)});
  slots.AddRow({"p90 slots in an active hour",
                FormatDouble(slots_per_active_hour.Percentile(90.0), 1)});
  slots.AddRow({"mean lag-1 day autocorrelation",
                FormatDouble(day_autocorrelation.mean(), 3)});
  slots.Print(std::cout);

  const std::string label = "users=" + std::to_string(num_users) + " weeks=4";
  json.Add("sessions_per_user_day", stats.sessions_per_user_day.mean(), "sessions", label);
  json.Add("median_session_s", stats.session_duration_s.Median(), "s", label);
  json.Add("mean_slots_per_user_day", daily_slots_per_user.mean(), "slots", label);
  json.Add("day_autocorrelation", day_autocorrelation.mean(), "corr", label);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 1700);
  pad::bench::BenchJson json(args.GetString("json", ""), "trace_characterization");
  pad::bench::CheckArgs(args);
  pad::Run(users, json);
  return json.Flush() ? 0 : 1;
}
