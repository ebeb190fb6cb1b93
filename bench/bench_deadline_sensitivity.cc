// E8 — Deadline sensitivity: advertisers' display deadline D is the paper's
// "short deadline" constraint. Shorter deadlines leave less room for the
// slot-arrival variance, so violations and rescue traffic rise; longer ones
// let a single replica ride out a quiet hour.
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, const SweepOptions& sweep, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);

  PrintBanner(std::cout, "E8: display deadline sweep (T = 1 h)");
  // Campaign deadlines are part of the generated inputs, so each point is a
  // full (inputs + baseline + pad) job — exactly the RunComparisonMany shape
  // (the trace itself is seed-identical across points).
  const std::vector<double> deadlines_min = {15.0, 30.0, 60.0, 120.0, 240.0};
  std::vector<PadConfig> points;
  points.reserve(deadlines_min.size());
  for (double deadline_min : deadlines_min) {
    PadConfig point = config;
    point.deadline_s = deadline_min * kMinute;
    points.push_back(point);
  }
  const std::vector<Comparison> results = RunComparisonMany(points, sweep);

  TextTable table(bench::MetricsHeader("deadline"));
  for (size_t i = 0; i < points.size(); ++i) {
    table.AddRow(bench::MetricsRow(FormatDouble(deadlines_min[i], 0) + "min",
                                   results[i].baseline, results[i].pad));
    json.AddComparison("users=" + std::to_string(num_users) + " deadline_min=" +
                           FormatDouble(deadlines_min[i], 0),
                       results[i]);
  }
  table.Print(std::cout);

  std::cout << "\nNote: with D < T the sale epoch shrinks to D, so very short\n"
               "deadlines also mean more frequent (smaller) prefetch syncs.\n";
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 250);
  const pad::SweepOptions sweep{.threads = args.GetInt("threads", 1)};
  pad::bench::BenchJson json(args.GetString("json", ""), "deadline_sensitivity");
  pad::bench::CheckArgs(args);
  pad::Run(users, sweep, json);
  return json.Flush() ? 0 : 1;
}
