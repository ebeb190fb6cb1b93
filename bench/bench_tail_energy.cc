// E2 — Tail-energy anatomy: energy per ad download versus refresh interval,
// per radio technology. Reproduces the paper's core observation that a
// few-KB ad costs ~10 J on 3G because of the RRC tail, and that back-to-back
// fetches amortize it while spaced fetches pay it in full.
#include "bench/bench_util.h"

#include <vector>

#include "src/radio/machine.h"

namespace pad {
namespace {

double EnergyPerAd(const RadioProfile& profile, double interval_s, int count) {
  std::vector<Transfer> transfers;
  transfers.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    transfers.push_back(Transfer{.request_time = static_cast<double>(i) * interval_s,
                                 .bytes = 3.0 * kKiB,
                                 .direction = Direction::kDownlink,
                                 .category = TrafficCategory::kAdFetch});
  }
  const EnergyReport report = SimulateTransfers(profile, transfers, 1e9);
  return report.total_energy_j() / count;
}

void Run(bench::BenchJson& json) {
  const std::vector<RadioProfile> profiles = {ThreeGProfile(), LteProfile(), WifiProfile()};
  const std::vector<double> intervals = {5.0,  15.0,  30.0,  60.0,
                                         120.0, 300.0, 600.0};
  const int kAds = 200;

  PrintBanner(std::cout, "E2: energy per 3 KiB ad vs refresh interval (J/ad)");
  TextTable table({"interval_s", "3g", "lte", "wifi"});
  for (double interval : intervals) {
    std::vector<std::string> row = {FormatDouble(interval, 0)};
    for (const RadioProfile& profile : profiles) {
      row.push_back(FormatDouble(EnergyPerAd(profile, interval, kAds), 2));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "E2: isolated fetch vs bulk prefetch of 20 ads");
  TextTable bulk({"radio", "20_spaced_30s_J", "one_bulk_J", "ratio"});
  for (const RadioProfile& profile : profiles) {
    const double spaced = 20.0 * EnergyPerAd(profile, 30.0, 20);
    const std::vector<Transfer> one = {Transfer{.request_time = 0.0,
                                                .bytes = 20.0 * 3.0 * kKiB,
                                                .direction = Direction::kDownlink,
                                                .category = TrafficCategory::kAdPrefetch}};
    const double bulk_j = SimulateTransfers(profile, one, 1e9).total_energy_j();
    bulk.AddRow({profile.name, FormatDouble(spaced, 1), FormatDouble(bulk_j, 1),
                 FormatDouble(spaced / bulk_j, 1) + "x"});
  }
  bulk.Print(std::cout);

  PrintBanner(std::cout, "E2: single isolated ad fetch (paper: ~10 J on 3G)");
  TextTable isolated({"radio", "energy_J"});
  for (const RadioProfile& profile : profiles) {
    const double energy_j = profile.IsolatedTransferEnergy(3.0 * kKiB, false);
    isolated.AddRow({profile.name, FormatDouble(energy_j, 2)});
    json.Add("isolated_ad_fetch_j", energy_j, "J", "radio=" + std::string(profile.name));
  }
  isolated.Print(std::cout);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  pad::bench::BenchJson json(args.GetString("json", ""), "tail_energy");
  pad::bench::CheckArgs(args);
  pad::Run(json);
  return json.Flush() ? 0 : 1;
}
