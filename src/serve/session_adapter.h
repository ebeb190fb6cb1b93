// Session adapter: the batch PAD decision logic behind a per-request API.
//
// The batch engine answers "prefetch or real-time?" once per sale epoch for
// a whole market (core/pad_server.h). A serving front end must answer the
// same question per request, at display time, for one client — without the
// answer depending on which of ten thousand concurrent connections happened
// to be scheduled first. The adapter makes that possible by splitting the
// server's state along the axis the epoch loop entangles:
//
//   * market state — the campaign book and each client's slot-rate estimate —
//     is an immutable snapshot built once at startup from the same
//     generators the batch path uses (PopulationStream traces expanded by
//     SlotsForUser, GenerateCampaignStream demand, ConfidentCapacity sale
//     sizing, RunSecondPriceAuction pricing);
//   * per-client sale state — committed cache claims (inventory control),
//     per-campaign demand consumption and frequency counts — lives in a
//     Session owned by one connection.
//
// Decide(session, request) is then a pure function of the snapshot and that
// session's own request history. Interleaving across sessions cannot change
// any answer, which is the determinism contract the loopback equivalence
// test enforces byte-for-byte (tests/serve/serving_equivalence_test.cc):
// replaying each session's requests directly against the engine must produce
// exactly the bytes the socket produced.
//
// The cost of the snapshot design is that concurrent sessions do not contend
// for the same campaign budget — each session consumes demand from its own
// view, like a per-edge allocation quota. DESIGN.md §13 discusses the trade.
#ifndef ADPAD_SRC_SERVE_SESSION_ADAPTER_H_
#define ADPAD_SRC_SERVE_SESSION_ADAPTER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/auction/campaign.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/serve/wire.h"

namespace pad {

struct ServeConfig {
  // The trace/market/policy knobs, reused verbatim: population generation,
  // campaign stream, reserve price, capacity_confidence, max_slot_rate_per_s.
  PadConfig pad;

  // Market-snapshot time: campaigns with arrival_time <= snapshot_time_s are
  // live. < 0 means the end of warmup, where the batch runs start scoring.
  double snapshot_time_s = -1.0;

  // Largest bundle a single request may ask for; slot_count above this is a
  // kBadRequest (a client cannot display hundreds of ads before a deadline).
  uint32_t max_bundle_ads = 32;

  double EffectiveSnapshotTime() const {
    return snapshot_time_s >= 0.0 ? snapshot_time_s : pad.WarmupS();
  }
};

// A CI-sized serving config over `num_users` PopulationStream clients.
ServeConfig DefaultServeConfig(int num_users);

class DecisionEngine {
 public:
  // Per-connection sale state. Sessions are independent by construction:
  // nothing a Decide call does to one session can be observed through
  // another. `demand_remaining` and `frequency` are lazily materialized
  // per-campaign views of the shared snapshot.
  struct Session {
    int64_t queued = 0;  // Bundle ads committed to this client's cache.
    std::unordered_map<int64_t, int64_t> demand_remaining;
    std::unordered_map<int64_t, int> frequency;
    int64_t requests = 0;
  };

  // Validates the config (ValidateConfig plus the serving knobs) and builds
  // the market snapshot. Building generates every client's trace once, so
  // cost is proportional to population size — pay it at startup, not per
  // request.
  static StatusOr<std::unique_ptr<DecisionEngine>> Create(const ServeConfig& config);

  int64_t num_clients() const { return static_cast<int64_t>(clients_.size()); }
  int64_t active_campaigns() const;
  const ServeConfig& config() const { return config_; }

  Session NewSession() const { return Session{}; }

  // Answers one request. Deterministic given (session history, request);
  // const on the engine so any number of sessions may decide concurrently.
  WireResponse Decide(Session& session, const WireRequest& request) const;

  // The batch reference: a fresh session replaying `requests` in order —
  // exactly what a connection serving those requests would compute. The
  // equivalence test compares the encoded bytes of these responses against
  // the bytes read off the loopback socket.
  std::vector<WireResponse> DecideBatch(const std::vector<WireRequest>& requests) const;

 private:
  struct ClientState {
    float slots_per_s = 0.0f;
    float var_per_s = 0.0f;
    int32_t segment = 0;
  };
  struct LadderEntry {
    // Campaigns sorted by (bid desc, id asc) — the exchange's BidOrder.
    double bid = 0.0;
    int64_t campaign_id = 0;
    int64_t target_impressions = 0;
    int frequency_cap = 0;  // <= 0 uncapped.
  };

  DecisionEngine(ServeConfig config) : config_(std::move(config)) {}

  // Sells up to `count` impressions for one client against the session's
  // private demand view; appends the sold ads.
  void Sell(Session& session, int segment, int64_t count, std::vector<WireAd>* ads) const;

  ServeConfig config_;
  std::vector<ClientState> clients_;
  // ladders_[segment] = eligible campaigns, best bid first.
  std::vector<std::vector<LadderEntry>> ladders_;
  int64_t active_campaigns_ = 0;
};

}  // namespace pad

#endif  // ADPAD_SRC_SERVE_SESSION_ADAPTER_H_
