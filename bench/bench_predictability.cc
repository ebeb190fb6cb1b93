// E4 — App-usage predictability: per-predictor error statistics over the
// population, for several prediction-window lengths. The paper's conclusion
// this reproduces: simple client-side models (especially time-of-day ones)
// predict slot counts well enough to sell inventory against, and longer
// windows are easier to predict (relative error falls as counts aggregate).
#include "bench/bench_util.h"

#include "src/apps/workload.h"
#include "src/prediction/evaluation.h"
#include "src/prediction/predictors.h"
#include "src/prediction/slot_series.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

void Run(int num_users, bench::BenchJson& json) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationConfig config;
  config.num_users = num_users;
  config.horizon_s = 28.0 * kDay;
  config.num_apps = catalog.size();
  const Population population = GeneratePopulation(config);

  // Bin every user's slots once per window length.
  const std::vector<double> windows = {1.0 * kHour, 3.0 * kHour, 6.0 * kHour, 24.0 * kHour};

  for (double window_s : windows) {
    std::vector<SlotSeries> series;
    series.reserve(population.users.size());
    for (const UserTrace& user : population.users) {
      series.push_back(BinSlots(SlotsForUser(catalog, user), population.horizon_s, window_s));
    }
    const int windows_per_day = series.front().WindowsPerDay();
    const int warmup = 7 * windows_per_day;

    PrintBanner(std::cout, "E4: prediction window T = " + FormatDouble(window_s / kHour, 0) +
                               " h (7 train days, 21 scored days, " +
                               std::to_string(num_users) + " users)");
    TextTable table({"predictor", "mean_abs_err", "p90_abs_err", "rmse", "mean_rel_err",
                     "over_rate", "under_rate"});
    for (PredictorKind kind : AllPredictorKinds()) {
      SampleSet abs_error;
      SampleSet rel_error;
      RunningStats rmse;
      WeightedMean over;
      WeightedMean under;
      for (const SlotSeries& user_series : series) {
        auto predictor = MakePredictor(kind, windows_per_day);
        const PredictionEval eval = EvaluatePredictor(*predictor, user_series.counts, warmup);
        if (eval.windows_scored == 0) {
          continue;
        }
        abs_error.AddAll(eval.abs_error.samples());
        rel_error.Add(eval.relative_error.mean());
        rmse.Add(eval.rmse);
        over.Add(eval.over_rate, eval.windows_scored);
        under.Add(eval.under_rate, eval.windows_scored);
      }
      table.AddRow({PredictorKindName(kind), FormatDouble(abs_error.mean(), 2),
                    FormatDouble(abs_error.Percentile(90.0), 2), FormatDouble(rmse.mean(), 2),
                    FormatDouble(rel_error.mean(), 2), bench::Pct(over.mean()),
                    bench::Pct(under.mean())});
      const std::string label = "users=" + std::to_string(num_users) + " window_h=" +
                                FormatDouble(window_s / kHour, 0) + " predictor=" +
                                PredictorKindName(kind);
      json.Add("mean_abs_err", abs_error.mean(), "slots", label);
      json.Add("rmse", rmse.mean(), "slots", label);
    }
    // Oracle floor for context.
    table.AddRow({"oracle", "0.00", "0.00", "0.00", "0.00", "0.0%", "0.0%"});
    table.Print(std::cout);
  }
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 400);
  pad::bench::BenchJson json(args.GetString("json", ""), "predictability");
  pad::bench::CheckArgs(args);
  pad::Run(users, json);
  return json.Flush() ? 0 : 1;
}
