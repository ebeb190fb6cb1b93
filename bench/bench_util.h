// Shared setup for the experiment-regeneration harnesses (bench_*).
//
// Every harness prints the rows/series of one table or figure from the
// paper's evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured). Populations are scaled down from
// the paper's 1,700 users so the full suite runs in minutes.
//
// Arguments use the tools' grammar (src/common/options.h): `key=value`, or
// `--config <file>` for one per line. `users=N` runs a harness at another
// scale (users=1700 is the paper's), `threads=N` fans a sweep's independent
// runs across N threads (results are bit-identical for any N — see
// src/core/sweep.h), and `json=<path>` also writes the results as BenchRow
// JSON. A malformed argument, a bad value or a key the harness does not read
// exits 1 with a one-line message before any simulation runs.
#ifndef ADPAD_BENCH_BENCH_UTIL_H_
#define ADPAD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bench_baseline.h"
#include "src/common/check.h"
#include "src/common/options.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace bench {

// The standard evaluation config: 3 trace weeks (1 warmup + 2 scored).
inline PadConfig StandardConfig(int num_users) {
  PadConfig config;
  config.population.num_users = num_users;
  config.population.horizon_s = 21.0 * kDay;
  config.warmup_days = 7;
  // Demand scales with supply so the market never starves the comparison.
  config.campaigns.arrivals_per_day = std::max(50.0, 1.5 * num_users);
  return config;
}

// Parses argv; a malformed argument (say a bare `1700`) prints the error and
// exits 1.
inline Options ParseArgs(int argc, char** argv) {
  std::string error;
  std::optional<Options> args = Options::Parse(argc, argv, &error);
  if (!args.has_value()) {
    std::cerr << error << "\n";
    std::exit(1);
  }
  return *std::move(args);
}

// Call after the last Get*: a bad value or an unread key prints the verdict
// of Options::Check and exits 1, so a harness never runs a configuration
// other than the one it was given.
inline void CheckArgs(const Options& args) {
  if (const std::string error = args.Check(); !error.empty()) {
    std::cerr << error << "\n";
    std::exit(1);
  }
}

// `users=N`, the population. The simulation requires N >= 1, so anything
// less exits 1 here instead of aborting in a check mid-run.
inline int Users(const Options& args, int fallback) {
  const int users = args.GetInt("users", fallback);
  if (users < 1) {
    std::cerr << "option 'users' must be at least 1 (value '" << users << "')\n";
    std::exit(1);
  }
  return users;
}

// A 64-bit digest as its uint32 halves in doubles: each half is exactly
// representable, so the JSON round-trip and the zero-tolerance compare in
// tools/bench_compare are bit-precise.
inline double Hi(uint64_t digest) { return static_cast<double>(digest >> 32); }
inline double Lo(uint64_t digest) { return static_cast<double>(digest & 0xffffffffull); }

inline std::string Pct(double fraction, int precision = 1) {
  return FormatDouble(100.0 * fraction, precision) + "%";
}

// Machine-readable output: a non-empty `json=<path>` makes the harness also
// write its results as BenchRow JSON (src/common/bench_baseline.h). Collect
// rows while printing the human tables, then Flush() before exiting. Flush is
// also run by the destructor so early returns still write the file.
class BenchJson {
 public:
  BenchJson(std::string path, std::string bench)
      : bench_(std::move(bench)), path_(std::move(path)) {}
  ~BenchJson() { Flush(); }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& metric, double value, const std::string& unit,
           const std::string& config) {
    rows_.push_back(BenchRow{bench_, metric, value, unit, config});
  }

  // The standard comparison metrics every end-to-end harness reports.
  void AddComparison(const std::string& config, const Comparison& comparison) {
    Add("ad_energy_savings", comparison.AdEnergySavings(), "fraction", config);
    Add("cache_hit_rate", comparison.pad.service.CacheHitRate(), "fraction", config);
    Add("sla_violation_rate", comparison.pad.ledger.SlaViolationRate(), "fraction", config);
    Add("revenue_loss_rate", comparison.pad.ledger.RevenueLossRate(), "fraction", config);
    Add("mean_replication", comparison.pad.MeanReplication(), "replicas", config);
    Add("revenue_ratio", comparison.RevenueRatio(), "fraction", config);
  }

  // Writes the collected rows if a path was given. Returns false (after
  // printing the error) only on IO failure.
  bool Flush() {
    if (path_.empty() || flushed_) {
      return true;
    }
    flushed_ = true;
    std::string error;
    if (!SaveBenchRows(path_, rows_, &error)) {
      std::cerr << "bench json=: " << error << "\n";
      return false;
    }
    std::cout << "wrote " << rows_.size() << " bench rows to " << path_ << "\n";
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<BenchRow> rows_;
  bool flushed_ = false;
};

// Thread-CPU load of a sharded run: each market's busy time is charged to the
// lane or worker process that simulated it. makespan_s is the largest
// per-worker sum (what wall clock becomes with a core per worker),
// total_busy_s the sum over all workers. Every market must have been
// simulated in the run, none restored from a journal.
struct WorkerLoad {
  double makespan_s = 0.0;
  double total_busy_s = 0.0;
};

inline WorkerLoad WorkerLoadOf(const ShardedComparison& result) {
  // Sized by the highest worker index, not workers_used: with processes,
  // workers_used counts only the workers that ran a market.
  std::vector<double> busy;
  for (size_t m = 0; m < result.market_workers.size(); ++m) {
    const int worker = result.market_workers[m];
    PAD_CHECK(worker >= 0);
    busy.resize(std::max(busy.size(), static_cast<size_t>(worker) + 1), 0.0);
    busy[static_cast<size_t>(worker)] += result.market_busy_s[m];
  }
  WorkerLoad load;
  for (const double worker_busy : busy) {
    load.makespan_s = std::max(load.makespan_s, worker_busy);
    load.total_busy_s += worker_busy;
  }
  return load;
}

// Summary row shared by the end-to-end sweeps.
inline std::vector<std::string> MetricsRow(const std::string& label,
                                           const BaselineResult& baseline,
                                           const PadRunResult& pad) {
  Comparison comparison{baseline, pad};
  return {label,
          Pct(comparison.AdEnergySavings()),
          Pct(pad.service.CacheHitRate()),
          Pct(pad.ledger.SlaViolationRate(), 2),
          Pct(pad.ledger.RevenueLossRate(), 2),
          FormatDouble(pad.MeanReplication(), 2),
          Pct(comparison.RevenueRatio())};
}

inline std::vector<std::string> MetricsHeader(const std::string& knob) {
  return {knob,       "ad_energy_savings", "cache_hit", "sla_violation",
          "rev_loss", "replication",       "revenue_vs_baseline"};
}

}  // namespace bench
}  // namespace pad

#endif  // ADPAD_BENCH_BENCH_UTIL_H_
