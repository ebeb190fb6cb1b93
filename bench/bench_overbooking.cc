// E6 — Overbooking: SLA violation rate and revenue loss as the replication
// policy sweeps from no insurance to heavy overbooking. Reproduces the
// paper's central tradeoff: replicas buy deadline safety with duplicate
// (unbillable) displays, and a modest factor suffices.
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, const SweepOptions& sweep, bench::BenchJson& json) {
  const std::string label = "users=" + std::to_string(num_users);
  PadConfig config = bench::StandardConfig(num_users);
  config.planner.max_replicas = 8;
  const SimInputs inputs = GenerateInputs(config);
  const BaselineResult baseline = RunBaseline(config, inputs);

  PrintBanner(std::cout,
              "E6: fixed overbooking factor sweep (target expected displays per sale)");
  const std::vector<double> factors = {0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0};
  std::vector<PadConfig> factor_points;
  for (double factor : factors) {
    PadConfig point = config;
    point.overbooking_factor = factor;
    factor_points.push_back(point);
  }
  TextTable table(bench::MetricsHeader("factor"));
  const std::vector<PadRunResult> factor_runs = RunPadMany(factor_points, inputs, sweep);
  for (size_t i = 0; i < factors.size(); ++i) {
    table.AddRow(bench::MetricsRow(FormatDouble(factors[i], 2), baseline, factor_runs[i]));
    json.AddComparison(label + " factor=" + FormatDouble(factors[i], 2),
                       Comparison{baseline, factor_runs[i]});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "E6: adaptive planner (PlanToTarget) across SLA targets");
  const std::vector<double> targets = {0.80, 0.90, 0.95, 0.99};
  std::vector<PadConfig> target_points;
  for (double target : targets) {
    PadConfig point = config;
    point.overbooking_factor = -1.0;  // Adaptive mode.
    point.planner.sla_target = target;
    target_points.push_back(point);
  }
  TextTable adaptive(bench::MetricsHeader("sla_target"));
  const std::vector<PadRunResult> target_runs = RunPadMany(target_points, inputs, sweep);
  for (size_t i = 0; i < targets.size(); ++i) {
    adaptive.AddRow(bench::MetricsRow(FormatDouble(targets[i], 2), baseline, target_runs[i]));
    json.AddComparison(label + " sla_target=" + FormatDouble(targets[i], 2),
                       Comparison{baseline, target_runs[i]});
  }
  adaptive.Print(std::cout);

  PrintBanner(std::cout, "E6: ablation — invalidation sync and rescue pass");
  std::vector<PadConfig> ablation_points(3, config);
  ablation_points[1].rescue_enabled = false;
  ablation_points[2].invalidation_sync = false;
  ablation_points[2].rescue_enabled = false;
  TextTable ablation(bench::MetricsHeader("mechanism"));
  const std::vector<PadRunResult> ablation_runs = RunPadMany(ablation_points, inputs, sweep);
  ablation.AddRow(bench::MetricsRow("full system", baseline, ablation_runs[0]));
  ablation.AddRow(bench::MetricsRow("no rescue pass", baseline, ablation_runs[1]));
  ablation.AddRow(bench::MetricsRow("no sync, no rescue", baseline, ablation_runs[2]));
  ablation.Print(std::cout);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 250);
  const pad::SweepOptions sweep{.threads = args.GetInt("threads", 1)};
  pad::bench::BenchJson json(args.GetString("json", ""), "overbooking");
  pad::bench::CheckArgs(args);
  pad::Run(users, sweep, json);
  return json.Flush() ? 0 : 1;
}
