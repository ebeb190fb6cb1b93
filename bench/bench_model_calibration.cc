// E15 (extension) — Is the overbooking model honest? For every dispatched
// impression the planner predicts P(displayed before deadline); this harness
// buckets those predictions and compares them with what actually happened.
// A well-calibrated system hugs the diagonal; points above it show the
// rescue pass recovering what the dispatch-time plan under-promised.
#include "bench/bench_util.h"

namespace pad {
namespace {

void PrintCurve(const char* title, const PadRunResult& pad) {
  PrintBanner(std::cout, title);
  TextTable table({"predicted_range", "impressions", "mean_predicted", "realized", "delta"});
  for (int b = 0; b < kCalibrationBuckets; ++b) {
    const CalibrationBucket& bucket = pad.calibration[static_cast<size_t>(b)];
    if (bucket.planned == 0) {
      continue;
    }
    const double lo = static_cast<double>(b) / kCalibrationBuckets;
    const double hi = static_cast<double>(b + 1) / kCalibrationBuckets;
    table.AddRow({FormatDouble(lo, 1) + "-" + FormatDouble(hi, 1),
                  std::to_string(bucket.planned), FormatDouble(bucket.PredictedRate(), 3),
                  FormatDouble(bucket.RealizedRate(), 3),
                  FormatDouble(bucket.RealizedRate() - bucket.PredictedRate(), 3)});
  }
  table.Print(std::cout);
}

// Impression-weighted mean |realized - predicted| across occupied buckets.
double CalibrationMae(const PadRunResult& pad) {
  double weighted = 0.0;
  double total = 0.0;
  for (const CalibrationBucket& bucket : pad.calibration) {
    if (bucket.planned == 0) {
      continue;
    }
    weighted += std::fabs(bucket.RealizedRate() - bucket.PredictedRate()) *
                static_cast<double>(bucket.planned);
    total += static_cast<double>(bucket.planned);
  }
  return total > 0.0 ? weighted / total : 0.0;
}

void Run(int num_users, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);
  const SimInputs inputs = GenerateInputs(config);
  const std::string label = "users=" + std::to_string(num_users);

  {
    const PadRunResult pad = RunPad(config, inputs);
    PrintCurve("E15: calibration, full system (rescue on)", pad);
    json.Add("calibration_mae_full", CalibrationMae(pad), "fraction", label);
  }
  {
    PadConfig point = config;
    point.rescue_enabled = false;
    const PadRunResult pad = RunPad(point, inputs);
    PrintCurve("E15: calibration, rescue disabled (raw dispatch-time model)", pad);
    json.Add("calibration_mae_no_rescue", CalibrationMae(pad), "fraction", label);
  }
  {
    PadConfig point = config;
    point.rescue_enabled = false;
    point.planner.confidence_discount = 0.7;
    const PadRunResult pad = RunPad(point, inputs);
    PrintCurve("E15: calibration with 0.7 confidence discount (distrust the model)", pad);
    json.Add("calibration_mae_discounted", CalibrationMae(pad), "fraction", label);
  }

  std::cout << "\nReading: 'realized' above 'mean_predicted' means the system over-delivers\n"
               "(rescue or conservative modeling); below means the model is optimistic.\n";
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::Options args = pad::bench::ParseArgs(argc, argv);
  const int users = pad::bench::Users(args, 250);
  pad::bench::BenchJson json(args.GetString("json", ""), "model_calibration");
  pad::bench::CheckArgs(args);
  pad::Run(users, json);
  return json.Flush() ? 0 : 1;
}
