// E7 — The energy/revenue tradeoff frontier: how aggressively inventory is
// sold in advance (capacity confidence) and how conservatively clients
// predict (quantile level) trade energy savings against revenue loss and
// SLA violations. Each row is one operating point of the frontier.
//
// The trace and the baseline are computed once; every PAD operating point is
// an independent run against the shared read-only inputs, fanned out through
// RunPadMany (`threads=N`).
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, const SweepOptions& sweep, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);
  const SimInputs inputs = GenerateInputs(config);
  const BaselineResult baseline = RunBaseline(config, inputs);

  PrintBanner(std::cout, "E7: capacity-confidence frontier (time_of_day predictor)");
  const std::vector<double> confidences = {0.10, 0.20, 0.30, 0.40, 0.50, 0.65, 0.80};
  std::vector<PadConfig> confidence_points;
  for (double confidence : confidences) {
    PadConfig point = config;
    point.capacity_confidence = confidence;
    confidence_points.push_back(point);
  }
  TextTable frontier(bench::MetricsHeader("capacity_conf"));
  const std::vector<PadRunResult> frontier_runs = RunPadMany(confidence_points, inputs, sweep);
  for (size_t i = 0; i < confidences.size(); ++i) {
    frontier.AddRow(
        bench::MetricsRow(FormatDouble(confidences[i], 2), baseline, frontier_runs[i]));
    json.AddComparison("users=" + std::to_string(num_users) + " capacity_conf=" +
                           FormatDouble(confidences[i], 2),
                       Comparison{baseline, frontier_runs[i]});
  }
  frontier.Print(std::cout);

  PrintBanner(std::cout, "E7: predictor risk posture (capacity_conf = 0.30)");
  const std::vector<PredictorKind> kinds = {
      PredictorKind::kQuantileConservative, PredictorKind::kQuantileMedian,
      PredictorKind::kTimeOfDay,            PredictorKind::kQuantileAggressive,
      PredictorKind::kEwma,                 PredictorKind::kLastValue};
  std::vector<PadConfig> predictor_points;
  for (PredictorKind kind : kinds) {
    PadConfig point = config;
    point.predictor = kind;
    predictor_points.push_back(point);
  }
  TextTable predictors(bench::MetricsHeader("predictor"));
  const std::vector<PadRunResult> predictor_runs = RunPadMany(predictor_points, inputs, sweep);
  for (size_t i = 0; i < kinds.size(); ++i) {
    predictors.AddRow(
        bench::MetricsRow(PredictorKindName(kinds[i]), baseline, predictor_runs[i]));
  }
  predictors.Print(std::cout);

  PrintBanner(std::cout, "E7: planner tail model (exact Poisson-binomial vs normal approx)");
  std::vector<PadConfig> tail_points(2, config);
  tail_points[0].planner.exact_tail = true;
  tail_points[1].planner.exact_tail = false;
  TextTable tail_model(bench::MetricsHeader("tail_model"));
  const std::vector<PadRunResult> tail_runs = RunPadMany(tail_points, inputs, sweep);
  tail_model.AddRow(bench::MetricsRow("exact", baseline, tail_runs[0]));
  tail_model.AddRow(bench::MetricsRow("normal_approx", baseline, tail_runs[1]));
  tail_model.Print(std::cout);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 250);
  const pad::SweepOptions sweep{.threads = args.GetInt("threads", 1)};
  pad::bench::BenchJson json(args.GetString("json", ""), "tradeoff");
  pad::bench::CheckArgs(args);
  pad::Run(users, sweep, json);
  return json.Flush() ? 0 : 1;
}
