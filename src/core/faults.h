// Deterministic fault injection for the PAD protocol.
//
// The simulation's default network is perfect: every slot report arrives,
// every bundle fetch succeeds, every sync lands. Real mobile links drop and
// delay exactly this control traffic, and the paper's machinery (overbooking,
// invalidation, rescue) is supposed to absorb that. This module makes the
// imperfection injectable and *measurable* without giving up the parallel
// sweep engine's determinism contract (sweep.h).
//
// Every fault decision is a pure function of (seed, fault kind, client id,
// event index) hashed through SplitMix64 — no RNG stream is consumed, so
//   * results are byte-identical at any --threads value and across repeated
//     runs (the decision does not depend on draw order or scheduling), and
//   * fault sets are *nested* across rates: an event faulted at rate r is
//     faulted at every rate r' > r, because the comparison u < rate reuses
//     the same u. Sweeps over the fault rate are therefore common-random-
//     number coupled, which is what makes the degradation monotonicity test
//     (tests/integration) meaningful.
//
// What each knob models (see DESIGN.md §6.8 for the design rationale):
//   * report_drop_rate / report_delay_rate — a client's per-window slot
//     report is lost (the server keeps a decaying stale view) or arrives one
//     window late;
//   * fetch_failure_rate / fetch_max_retries — a bundle download attempt
//     fails at a radio wakeup; the retry rides the *next* wakeup (never a
//     dedicated one), and after the retry budget the pending bundle is
//     abandoned so it expires instead of wedging the cache;
//   * sync_miss_rate — a client misses a sync epoch: invalidations for it
//     are lost (its redundant replicas survive and surface as excess);
//   * offline_rate / offline_window_s — per-client windows during which the
//     ad infrastructure is unreachable: no dispatch, no control traffic, no
//     fallback fetches. App content traffic is NOT suppressed: offline here
//     is control-plane unreachability, which keeps the baseline/PAD energy
//     comparison fair (a dead radio would starve both systems equally).
#ifndef ADPAD_SRC_CORE_FAULTS_H_
#define ADPAD_SRC_CORE_FAULTS_H_

#include <cstdint>

namespace pad {

// Shared deterministic-hash primitives. FaultPlan (this file) and the
// serving chaos layer (src/serve/chaos.h) must agree on the construction so
// both inherit the same two properties: decisions are pure functions of
// their coordinates (byte-identical at any thread count), and decision sets
// *nest* across rates (an event that fires at rate r fires at every r' > r,
// because the same uniform draw is compared against both).

// Uniform [0, 1) draw, a pure function of (seed, channel, a, b). `channel`
// domain-separates independent decision kinds sharing one seed. The hash is
// the SplitMix64 finalizer (Mix64 in src/common/rng.h), which also seeds Rng,
// so hash-derived decisions are well-decorrelated from RNG streams even when
// both start from the same seed.
double DetHashUniform(uint64_t seed, uint64_t channel, int64_t a, int64_t b);

// Fault knobs, part of PadConfig (config.faults). All rates are
// probabilities in [0, 1]; everything defaults to "perfect network".
struct FaultConfig {
  // P(a window's slot report never reaches the server). The server's view of
  // the client decays toward the conservative prior (see stale_decay).
  double report_drop_rate = 0.0;
  // P(the report arrives one prediction window late instead). Mutually
  // exclusive with a drop: one draw decides delivered/dropped/delayed.
  double report_delay_rate = 0.0;
  // P(one bundle download attempt fails at a radio wakeup).
  double fetch_failure_rate = 0.0;
  // Failed fetches retry on subsequent wakeups at most this many times
  // before the pending bundle is abandoned (its replicas simply expire).
  int fetch_max_retries = 3;
  // P(a client misses a sync epoch: invalidations addressed to it are lost).
  double sync_miss_rate = 0.0;
  // P(a client is offline — ad infrastructure unreachable — during any given
  // offline window of length offline_window_s).
  double offline_rate = 0.0;
  double offline_window_s = 3600.0;
  // Multiplier applied to the server-visible rate and variance for each
  // consecutive window the client goes unheard: stale predictions decay
  // toward the conservative prior (sell nothing you cannot confirm).
  double stale_decay = 0.5;

  // True when any fault can actually fire.
  bool AnyEnabled() const {
    return report_drop_rate > 0.0 || report_delay_rate > 0.0 ||
           fetch_failure_rate > 0.0 || sync_miss_rate > 0.0 || offline_rate > 0.0;
  }

  // The one-knob shape the degradation sweep uses: every failure mode at the
  // same rate.
  static FaultConfig Uniform(double rate) {
    FaultConfig config;
    config.report_drop_rate = rate;
    config.fetch_failure_rate = rate;
    config.sync_miss_rate = rate;
    config.offline_rate = rate;
    return config;
  }
};

// What happened to one window's slot report.
enum class ReportFate : uint8_t { kDelivered = 0, kDropped = 1, kDelayed = 2 };

// Stateless per-event fault oracle. Copyable and cheap: every simulated
// actor (each client, the server) holds its own instance built from the same
// (config, seed) pair, and all instances agree on every decision.
class FaultPlan {
 public:
  // Disabled plan: never faults.
  FaultPlan() = default;
  FaultPlan(const FaultConfig& config, uint64_t seed);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return config_; }

  // One draw decides the fate of client `client_id`'s report for absolute
  // window `window`: delivered, dropped, or delayed by one window.
  ReportFate ReportFateFor(int client_id, int64_t window) const;

  // Whether the client's `attempt`-th bundle download attempt fails.
  bool FetchFails(int client_id, int64_t attempt) const;

  // Whether the client misses sync epoch `epoch` (no invalidations arrive).
  bool SyncMissed(int client_id, int64_t epoch) const;

  // Whether the client's ad infrastructure is unreachable at time `time`.
  // Constant within each offline window of length config.offline_window_s.
  bool OfflineAt(int client_id, double time) const;

 private:
  enum class Channel : uint64_t { kReport = 1, kFetch = 2, kSync = 3, kOffline = 4 };

  // Uniform [0, 1) draw, a pure function of (seed, channel, client, index).
  double Draw(Channel channel, int64_t client_id, int64_t index) const;

  FaultConfig config_{};
  uint64_t seed_ = 0;
  bool enabled_ = false;
};

}  // namespace pad

#endif  // ADPAD_SRC_CORE_FAULTS_H_
