// Trace pipeline walkthrough: generate a synthetic population, persist it,
// reload it, and characterize it — the workflow for anyone swapping in their
// own usage traces (the CSV schema is user_id,app_id,start_time,duration_s).
//
//   $ ./build/examples/trace_explorer [num_users] [days] [/path/to/out.csv]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/apps/workload.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/prediction/evaluation.h"
#include "src/prediction/predictors.h"
#include "src/prediction/slot_series.h"
#include "src/trace/generator.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"

int main(int argc, char** argv) {
  using namespace pad;

  const int num_users = argc > 1 ? std::atoi(argv[1]) : 100;
  const double days = argc > 2 ? std::atof(argv[2]) : 14.0;
  const std::string path = argc > 3 ? argv[3] : "/tmp/adpad_trace.csv";

  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationConfig config;
  config.num_users = num_users;
  config.horizon_s = days * kDay;
  config.num_apps = catalog.size();

  std::cout << "Generating " << num_users << " users x " << days << " days...\n";
  const Population population = GeneratePopulation(config);
  WriteTraceFile(population, path);
  std::cout << "Wrote " << population.TotalSessions() << " sessions to " << path << "\n";

  StatusOr<Population> reloaded = LoadTraceFile(path);
  if (!reloaded.ok()) {
    std::cerr << "trace_explorer: " << reloaded.status().ToString() << "\n";
    return ExitCodeFor(reloaded.status());
  }
  const Population loaded = *std::move(reloaded);
  std::cout << "Reloaded " << loaded.TotalSessions() << " sessions ("
            << (loaded.TotalSessions() == population.TotalSessions() ? "round-trip OK"
                                                                     : "MISMATCH")
            << ")\n\n";

  const TraceStats stats = ComputeTraceStats(loaded);
  TextTable table({"metric", "p25", "p50", "p90"});
  table.AddRow({"sessions/user/day",
                FormatDouble(stats.sessions_per_user_day.Percentile(25.0), 1),
                FormatDouble(stats.sessions_per_user_day.Percentile(50.0), 1),
                FormatDouble(stats.sessions_per_user_day.Percentile(90.0), 1)});
  table.AddRow({"session length (s)",
                FormatDouble(stats.session_duration_s.Percentile(25.0), 0),
                FormatDouble(stats.session_duration_s.Percentile(50.0), 0),
                FormatDouble(stats.session_duration_s.Percentile(90.0), 0)});
  table.Print(std::cout);

  // How predictable is this trace? Score the standard predictor per user,
  // training on the first half of the trace (at most a week).
  const int train_days = std::min(7, static_cast<int>(days / 2.0));
  SampleSet relative_error;
  for (const UserTrace& user : loaded.users) {
    const SlotSeries series = BinSlots(SlotsForUser(catalog, user), loaded.horizon_s, kHour);
    TimeOfDayPredictor predictor(series.WindowsPerDay(), 0.3);
    const PredictionEval eval =
        EvaluatePredictor(predictor, series.counts, /*warmup_windows=*/train_days * 24);
    if (eval.windows_scored > 0) {
      relative_error.Add(eval.relative_error.mean());
    }
  }
  std::cout << "\nHourly slot prediction (time-of-day model, " << train_days
            << " train days):\n"
            << "  median per-user relative error: "
            << FormatDouble(relative_error.Median(), 2) << "\n"
            << "  p90 per-user relative error:    "
            << FormatDouble(relative_error.Percentile(90.0), 2) << "\n";
  std::cout << "\nTo run the full pipeline on your own trace, load it with\n"
            << "LoadTraceFile() and pass it through RunBaseline()/RunPad()\n"
            << "(see src/core/pad_simulation.h).\n";
  return 0;
}
