// E14 (extension) — WiFi offload: how much of the ad energy problem (and of
// prefetching's advantage) survives when users have home WiFi every night.
// The baseline benefits too (its nightly fetches ride WiFi), but only
// prefetching can concentrate bulk transfers into the cheap windows.
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);
  const SimInputs inputs = GenerateInputs(config);

  struct Scenario {
    const char* label;
    bool wifi;
  };
  PrintBanner(std::cout, "E14: cellular-only vs nightly home WiFi (19:00-08:00)");
  TextTable table({"scenario", "baseline_ad_kJ", "pad_ad_kJ", "savings", "sla_violation",
                   "rev_loss"});
  for (const Scenario& scenario : {Scenario{"3g_only", false}, Scenario{"3g_plus_wifi", true}}) {
    PadConfig point = config;
    point.wifi.enabled = scenario.wifi;
    const BaselineResult baseline = RunBaseline(point, inputs);
    const PadRunResult pad = RunPad(point, inputs);
    Comparison comparison{baseline, pad};
    table.AddRow({scenario.label, FormatDouble(baseline.energy.AdEnergyJ() / 1000.0, 1),
                  FormatDouble(pad.energy.AdEnergyJ() / 1000.0, 1),
                  bench::Pct(comparison.AdEnergySavings()),
                  bench::Pct(pad.ledger.SlaViolationRate(), 2),
                  bench::Pct(pad.ledger.RevenueLossRate(), 2)});
    json.AddComparison(
        "users=" + std::to_string(num_users) + " scenario=" + scenario.label, comparison);
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "E14: WiFi window length sweep (PAD, window ends 08:00)");
  TextTable sweep({"window_start", "baseline_ad_kJ", "pad_ad_kJ", "savings"});
  for (double start_h : {23.0, 21.0, 19.0, 17.0}) {
    PadConfig point = config;
    point.wifi.enabled = true;
    point.wifi.home_start_h = start_h;
    const BaselineResult baseline = RunBaseline(point, inputs);
    const PadRunResult pad = RunPad(point, inputs);
    Comparison comparison{baseline, pad};
    sweep.AddRow({FormatDouble(start_h, 0) + ":00",
                  FormatDouble(baseline.energy.AdEnergyJ() / 1000.0, 1),
                  FormatDouble(pad.energy.AdEnergyJ() / 1000.0, 1),
                  bench::Pct(comparison.AdEnergySavings())});
  }
  sweep.Print(std::cout);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 250);
  pad::bench::BenchJson json(args.GetString("json", ""), "wifi_offload");
  pad::bench::CheckArgs(args);
  pad::Run(users, json);
  return json.Flush() ? 0 : 1;
}
