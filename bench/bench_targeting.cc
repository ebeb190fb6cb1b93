// E13 (extension) — Ad targeting vs prefetching: the paper flags audience
// targeting as the constraint on replication ("an ad can only be replicated
// to clients it targets"). This harness sweeps how much of the market is
// targeted and how narrow the targeting is, measuring what that costs the
// prefetching system relative to an untargeted market.
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);
  config.population.num_segments = 8;

  PrintBanner(std::cout, "E13: fraction of campaigns targeted (8 segments, selectivity 0.25)");
  TextTable fraction_table(bench::MetricsHeader("targeted_frac"));
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    PadConfig point = config;
    point.campaigns.targeted_fraction = fraction;
    point.campaigns.segment_selectivity = 0.25;
    const SimInputs inputs = GenerateInputs(point);
    const BaselineResult baseline = RunBaseline(point, inputs);
    const PadRunResult pad = RunPad(point, inputs);
    fraction_table.AddRow(bench::MetricsRow(FormatDouble(fraction, 2), baseline, pad));
    json.AddComparison("users=" + std::to_string(num_users) + " targeted_frac=" +
                           FormatDouble(fraction, 2),
                       Comparison{baseline, pad});
  }
  fraction_table.Print(std::cout);

  PrintBanner(std::cout, "E13: targeting selectivity (all campaigns targeted)");
  TextTable selectivity_table(bench::MetricsHeader("selectivity"));
  for (double selectivity : {0.60, 0.40, 0.25, 0.125}) {
    PadConfig point = config;
    point.campaigns.targeted_fraction = 1.0;
    point.campaigns.segment_selectivity = selectivity;
    const SimInputs inputs = GenerateInputs(point);
    const BaselineResult baseline = RunBaseline(point, inputs);
    const PadRunResult pad = RunPad(point, inputs);
    selectivity_table.AddRow(bench::MetricsRow(FormatDouble(selectivity, 3), baseline, pad));
  }
  selectivity_table.Print(std::cout);

  PrintBanner(std::cout, "E13: frequency caps and budgets (untargeted market)");
  TextTable extras(bench::MetricsHeader("market"));
  {
    PadConfig point = config;
    point.population.num_segments = 1;
    const SimInputs inputs = GenerateInputs(point);
    extras.AddRow(bench::MetricsRow("plain", RunBaseline(point, inputs), RunPad(point, inputs)));
  }
  {
    PadConfig point = config;
    point.population.num_segments = 1;
    point.campaigns.capped_fraction = 0.5;
    point.campaigns.frequency_cap_per_day = 2;
    const SimInputs inputs = GenerateInputs(point);
    extras.AddRow(
        bench::MetricsRow("50% capped", RunBaseline(point, inputs), RunPad(point, inputs)));
  }
  {
    PadConfig point = config;
    point.population.num_segments = 1;
    point.campaigns.budgeted_fraction = 0.5;
    const SimInputs inputs = GenerateInputs(point);
    extras.AddRow(
        bench::MetricsRow("50% budgeted", RunBaseline(point, inputs), RunPad(point, inputs)));
  }
  extras.Print(std::cout);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 250);
  pad::bench::BenchJson json(args.GetString("json", ""), "targeting");
  pad::bench::CheckArgs(args);
  pad::Run(users, json);
  return json.Flush() ? 0 : 1;
}
