#include "src/core/sweep.h"

#include <algorithm>
#include <functional>

#include "src/common/bytes.h"
#include "src/common/task_scheduler.h"

namespace pad {
namespace {

// Runs body(i) once for every i in [0, n) on up to `threads` workers (0 asks
// the hardware), each starting on its own contiguous run and stealing when
// idle. The caller slots results by i, so the schedule is unobservable.
void ForEachJob(size_t n, int threads, const std::function<void(size_t)>& body) {
  const int64_t jobs = static_cast<int64_t>(n);
  const int workers = threads <= 0 ? HardwareThreads() : threads;
  RunTaskQueues(PartitionTasks(jobs, static_cast<int>(std::clamp<int64_t>(jobs, 1, workers))),
                [&body](int, int64_t i) { body(static_cast<size_t>(i)); });
}

uint64_t DigestOf(const auto& result) {
  Fnv1a digest;
  VisitMetrics(result, [&digest](auto field) { digest.Mix(field); });
  return digest.value();
}

}  // namespace

std::vector<Comparison> RunComparisonMany(std::span<const PadConfig> configs,
                                          const SweepOptions& options) {
  std::vector<Comparison> results(configs.size());
  ForEachJob(configs.size(), options.threads,
             [&](size_t job) { results[job] = RunComparison(configs[job]); });
  return results;
}

std::vector<PadRunResult> RunPadMany(std::span<const PadConfig> configs,
                                     const SimInputs& inputs, const SweepOptions& options,
                                     std::vector<EventLog>* event_logs) {
  std::vector<PadRunResult> results(configs.size());
  if (event_logs != nullptr) {
    event_logs->assign(configs.size(), EventLog());
  }
  ForEachJob(configs.size(), options.threads, [&](size_t job) {
    EventLog* log = event_logs != nullptr ? &(*event_logs)[job] : nullptr;
    results[job] = RunPad(configs[job], inputs, log);
  });
  return results;
}

uint64_t MetricsDigest(const BaselineResult& result) { return DigestOf(result); }

uint64_t MetricsDigest(const PadRunResult& result) { return DigestOf(result); }

uint64_t ComparisonDigest(const Comparison& comparison) {
  const uint64_t halves[] = {MetricsDigest(comparison.baseline), MetricsDigest(comparison.pad)};
  return DigestCombine(halves);
}

uint64_t DigestCombine(std::span<const uint64_t> digests) {
  Fnv1a digest;
  for (uint64_t value : digests) {
    digest.MixU64(value);
  }
  return digest.value();
}

}  // namespace pad
