// bench_compare — perf regression gate over two bench JSON files.
//
//   $ bench_compare baseline.json candidate.json
//   $ bench_compare BENCH_population_scale.json /tmp/new.json
//       --default_tol 0.05 --tol sold_count=0.10 --ignore users_per_s
//
// Both files are BenchRow arrays as written by any bench_* harness's
// `json=<path>` (see src/common/bench_baseline.h). Rows are matched by
// (bench, metric, config); each matched pair must agree within the metric's
// relative tolerance, a finite number >= 0.
//
// Exit codes: 0 all metrics within tolerance; 1 a metric drifted past its
// tolerance or vanished from the candidate; 2 usage, IO, or parse errors.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/bench_baseline.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace pad {
namespace {

const char* StatusName(BenchDiffStatus status) {
  switch (status) {
    case BenchDiffStatus::kOk: return "ok";
    case BenchDiffStatus::kDrifted: return "DRIFTED";
    case BenchDiffStatus::kMissing: return "MISSING";
    case BenchDiffStatus::kExtra: return "extra";
    case BenchDiffStatus::kIgnored: return "ignored";
  }
  return "?";
}

int Usage() {
  std::cerr << "usage: bench_compare <baseline.json> <candidate.json>\n"
            << "         [--default_tol R] [--tol metric=R]... [--ignore metric]...\n"
            << "         [--config \"exact config string\"]\n";
  return 2;
}

// Parses a whole tolerance value: a finite number >= 0, nothing after it.
bool ParseTolerance(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(*out) && *out >= 0.0;
}

int BadTolerance(const std::string& flag, const std::string& text) {
  std::cerr << "bench_compare: " << flag << " wants a finite number >= 0, got '" << text
            << "'\n";
  return 2;
}

int Run(int argc, char** argv) {
  std::vector<std::string> files;
  BenchCompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--default_tol" && i + 1 < argc) {
      if (!ParseTolerance(argv[++i], &options.default_tolerance)) {
        return BadTolerance(arg, argv[i]);
      }
    } else if (arg == "--tol" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "bench_compare: --tol wants metric=R, got '" << spec << "'\n";
        return 2;
      }
      if (!ParseTolerance(spec.substr(eq + 1), &options.metric_tolerance[spec.substr(0, eq)])) {
        return BadTolerance("--tol " + spec.substr(0, eq), spec.substr(eq + 1));
      }
    } else if (arg == "--ignore" && i + 1 < argc) {
      options.ignore_metrics.insert(argv[++i]);
    } else if (arg == "--config" && i + 1 < argc) {
      options.config_filter = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "bench_compare: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    return Usage();
  }

  std::vector<BenchRow> baseline;
  std::vector<BenchRow> candidate;
  std::string error;
  if (!LoadBenchRows(files[0], &baseline, &error) ||
      !LoadBenchRows(files[1], &candidate, &error)) {
    std::cerr << "bench_compare: " << error << "\n";
    return 2;
  }

  const std::vector<BenchDiff> diffs = CompareBenchRows(baseline, candidate, options);
  TextTable table({"bench", "metric", "config", "baseline", "candidate", "rel_diff",
                   "tol", "status"});
  for (const BenchDiff& diff : diffs) {
    table.AddRow({diff.bench, diff.metric, diff.config, FormatDouble(diff.baseline, 6),
                  FormatDouble(diff.candidate, 6), FormatDouble(diff.rel_diff, 4),
                  FormatDouble(diff.tolerance, 4), StatusName(diff.status)});
  }
  table.Print(std::cout);

  if (BenchCompareFailed(diffs)) {
    std::cout << "\nFAIL: at least one metric drifted past tolerance or went missing\n";
    return 1;
  }
  std::cout << "\nOK: " << diffs.size() << " rows within tolerance\n";
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) { return pad::Run(argc, argv); }
