// The two clocks the shard engine's execution trace is kept on.
#ifndef ADPAD_SRC_COMMON_CLOCK_H_
#define ADPAD_SRC_COMMON_CLOCK_H_

#include <time.h>

#include <chrono>

namespace pad {

// Wall-clock seconds elapsed since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// CPU time consumed by the calling thread. Per-market costs are measured on
// this clock so per-worker sums report true load balance even when workers
// outnumber cores and wall clock would charge preemption to whoever held the
// core last.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_CLOCK_H_
