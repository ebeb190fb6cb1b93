// E5 — The headline result: prefetching cuts the ad energy overhead by more
// than 50% with small revenue loss and SLA violation rates (paper abstract),
// plus the savings-vs-prediction-window series.
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);
  SimInputs inputs = GenerateInputs(config);
  const BaselineResult baseline = RunBaseline(config, inputs);

  PrintBanner(std::cout, "E5: headline comparison (" + std::to_string(num_users) +
                             " users, 2 scored weeks, 3G, T = 1 h, D = 3 h)");
  const PadRunResult pad = RunPad(config, inputs);
  const Comparison headline{baseline, pad};
  json.AddComparison("users=" + std::to_string(num_users) + " window_h=1 deadline_h=3",
                     headline);
  TextTable table({"metric", "measured", "paper"});
  table.AddRow({"ad energy savings", bench::Pct(headline.AdEnergySavings()), ">50%"});
  table.AddRow({"SLA violation rate", bench::Pct(pad.ledger.SlaViolationRate(), 2),
                "negligible"});
  table.AddRow({"revenue loss rate", bench::Pct(pad.ledger.RevenueLossRate(), 2),
                "negligible"});
  table.AddRow({"revenue vs baseline", bench::Pct(headline.RevenueRatio()), "~100%"});
  table.AddRow({"cache hit rate", bench::Pct(pad.service.CacheHitRate()), "-"});
  table.AddRow({"mean replication", FormatDouble(pad.MeanReplication(), 2), "small"});
  table.Print(std::cout);

  PrintBanner(std::cout, "E5: absolute energy (J, population total over scored phase)");
  TextTable energy({"component", "baseline", "pad"});
  auto joules = [](double j) { return FormatDouble(j / 1000.0, 1) + " kJ"; };
  energy.AddRow({"ad machinery (fetch+prefetch+reports)",
                 joules(baseline.energy.AdEnergyJ()), joules(pad.energy.AdEnergyJ())});
  energy.AddRow({"app content",
                 joules(baseline.energy.radio.For(TrafficCategory::kAppContent).total_j()),
                 joules(pad.energy.radio.For(TrafficCategory::kAppContent).total_j())});
  energy.AddRow({"all communication", joules(baseline.energy.CommEnergyJ()),
                 joules(pad.energy.CommEnergyJ())});
  energy.AddRow({"local (CPU+display)", joules(baseline.energy.local_j),
                 joules(pad.energy.local_j)});
  energy.Print(std::cout);

  PrintBanner(std::cout, "E5: savings vs prediction window T (D = 3 h)");
  TextTable sweep(bench::MetricsHeader("T"));
  for (double window_h : {1.0, 2.0, 3.0, 6.0}) {
    PadConfig point = config;
    point.prediction_window_s = window_h * kHour;
    const PadRunResult result = RunPad(point, inputs);
    sweep.AddRow(bench::MetricsRow(FormatDouble(window_h, 0) + "h", baseline, result));
  }
  sweep.Print(std::cout);

  PrintBanner(std::cout, "E5: seed stability (independent trace + market draws)");
  TextTable seeds({"seed", "savings", "sla_violation", "rev_loss"});
  SampleSet savings_samples;
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    PadConfig point = config;
    point.population.seed = seed;
    point.campaigns.seed = seed ^ 0xc0ffee;
    point.seed = seed;
    const SimInputs seeded = GenerateInputs(point);
    const BaselineResult seeded_baseline = RunBaseline(point, seeded);
    const PadRunResult seeded_pad = RunPad(point, seeded);
    const Comparison comparison{seeded_baseline, seeded_pad};
    savings_samples.Add(comparison.AdEnergySavings());
    seeds.AddRow({std::to_string(seed), bench::Pct(comparison.AdEnergySavings()),
                  bench::Pct(seeded_pad.ledger.SlaViolationRate(), 2),
                  bench::Pct(seeded_pad.ledger.RevenueLossRate(), 2)});
  }
  seeds.AddRow({"spread", bench::Pct(savings_samples.max() - savings_samples.min(), 2), "-",
                "-"});
  seeds.Print(std::cout);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 300);
  pad::bench::BenchJson json(args.GetString("json", ""), "prefetch_savings");
  pad::bench::CheckArgs(args);
  pad::Run(users, json);
  return json.Flush() ? 0 : 1;
}
