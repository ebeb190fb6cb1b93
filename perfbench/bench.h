// Shared plumbing of the benchmark harness: clocks, the in-memory span
// recorder, pinned digests, and the result every workload returns.
//
// The harness reaches the program only through its public headers. Each
// workload generates its inputs from the workload seed, times a few long
// calls, checks every call's outputs, and reports medians.
#ifndef ADPAD_PERFBENCH_BENCH_H_
#define ADPAD_PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// User + system CPU of the whole process, all threads included.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

inline double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Median of `values` (mean of the two middle values when even); 0 if empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank quantile of an already sorted vector.
template <typename T>
T SortedQuantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) {
    return T{};
  }
  const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// One recorded interval. `parent` indexes the enclosing span (-1 at the
// root); `call` is the workload call (or serving session) it belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t call = -1;
};

// Spans recorded in memory and written out when the run ends. Storage is
// reserved up front, so recording never allocates; spans beyond the capacity
// are counted as dropped. A disabled tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, size_t capacity) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(capacity);
    }
  }

  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when not recorded).
  int32_t Begin(const char* name, int32_t parent, int32_t call) {
    if (!enabled_) {
      return -1;
    }
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, NowNs(), 0, parent, call});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t span) {
    if (span >= 0) {
      spans_[static_cast<size_t>(span)].end_ns = NowNs();
    }
  }

  // Records an interval whose endpoints were measured by the caller.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent, int32_t call) {
    if (!enabled_) {
      return;
    }
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, call});
  }

  // Duration in milliseconds of a recorded span (0 when not recorded).
  double Ms(int32_t span) const {
    if (span < 0) {
      return 0.0;
    }
    const Span& s = spans_[static_cast<size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// RAII span for one public call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int32_t parent, int32_t call)
      : tracer_(tracer), id_(tracer.Begin(name, parent, call)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

  // Closes the span early; later calls and the destructor do nothing.
  void End() {
    if (open_) {
      tracer_.End(id_);
      open_ = false;
    }
  }

 private:
  Tracer& tracer_;
  int32_t id_;
  bool open_ = true;
};

// Digests of one simulator call, pinned per workload and input seed in
// perfbench/pins.txt.
struct SimDigests {
  uint64_t pad = 0;
  uint64_t baseline = 0;
  uint64_t events = 0;

  bool operator==(const SimDigests&) const = default;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;   // Pinned simulator digests.
  std::string work_dir;    // Scratch files (checkpoint journals, spans).
};

// What a workload reports. `metrics` holds name -> value; units live with
// the metric tables in main.cc.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // Human-readable lines printed before the JSON.
};

// The simulator workloads draw their inputs from kSeedClasses input classes,
// each with a pinned digest set. Call k of a run uses class (seed + k) mod
// kSeedClasses (in a traced run, (seed + k / 2) mod kSeedClasses), so a run
// of a dozen or more calls covers nearly every class and its median does not
// hinge on which classes the seed picks.
inline constexpr uint64_t kSeedClasses = 16;
inline uint64_t InputSeedClass(uint64_t seed, int call) {
  return (seed + static_cast<uint64_t>(call)) % kSeedClasses;
}

// Reads the pin for (workload, input class); false when absent.
bool LookupPin(const std::string& path, const std::string& workload, uint64_t seed_class,
               SimDigests* out);

RunResult RunSimBigMarket(const RunOptions& options, Tracer& tracer);
RunResult RunSimStream(const RunOptions& options, Tracer& tracer);
RunResult RunServeOpen(const RunOptions& options, Tracer& tracer);
RunResult RunServeChurn(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench

#endif  // ADPAD_PERFBENCH_BENCH_H_
