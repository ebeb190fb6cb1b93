#include "src/serve/session_adapter.h"

#include <algorithm>
#include <cmath>

#include "src/apps/app_profile.h"
#include "src/apps/workload.h"
#include "src/auction/auction.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"
#include "src/overbook/display_model.h"
#include "src/prediction/slot_series.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

// Requests promising a deadline beyond this are rejected before the capacity
// model sees them: the display model's mean slot count is rate * deadline,
// and an absurd deadline (say 1e300 s) would push that past integer range.
// A week is already far beyond any deadline the paper's market would sell.
constexpr double kMaxRequestDeadlineS = kWeek;

}  // namespace

ServeConfig DefaultServeConfig(int num_users) {
  ServeConfig config;
  config.pad = QuickConfig();
  config.pad.population.num_users = num_users;
  // Demand scales with supply, as in bench_util's StandardConfig, so the
  // snapshot book never starves the decisions.
  config.pad.campaigns.arrivals_per_day =
      std::max(50.0, 1.5 * static_cast<double>(num_users));
  return config;
}

StatusOr<std::unique_ptr<DecisionEngine>> DecisionEngine::Create(const ServeConfig& config) {
  const std::string problem = ValidateConfig(config.pad);
  if (!problem.empty()) {
    return Status::InvalidArgument("invalid config: " + problem);
  }
  if (config.max_bundle_ads == 0) {
    return Status::InvalidArgument("invalid config: max_bundle_ads must be positive");
  }
  if (config.snapshot_time_s > config.pad.population.horizon_s) {
    return Status::InvalidArgument("invalid config: snapshot_time_s past the trace horizon");
  }

  const PadConfig cfg = AlignInputsConfig(config.pad);
  auto engine = std::unique_ptr<DecisionEngine>(new DecisionEngine(config));

  // Per-client slot-rate estimates from the same trace the batch engine
  // would simulate: generate each PopulationStream client once, expand its
  // sessions to ad slots, and bin them into prediction windows. The window
  // statistics feed the display model exactly as a client's slot report
  // would (mean -> rate; empirical variance, floored at Poisson, -> var).
  const AppCatalog catalog = AppCatalog::TopFifteen();
  const double window_s = cfg.prediction_window_s;
  PopulationStream stream(cfg.population);
  engine->clients_.reserve(static_cast<size_t>(cfg.population.num_users));
  for (int64_t u = 0; u < cfg.population.num_users; ++u) {
    const Population block = stream.NextBlock(1);
    const UserTrace& user = block.users[0];
    const std::vector<SlotEvent> slots = SlotsForUser(catalog, user);
    const SlotSeries series = BinSlots(slots, cfg.population.horizon_s, window_s);
    double mean = 0.0;
    for (const int count : series.counts) {
      mean += static_cast<double>(count);
    }
    const double windows = std::max<size_t>(series.counts.size(), 1);
    mean /= windows;
    double variance = 0.0;
    for (const int count : series.counts) {
      const double d = static_cast<double>(count) - mean;
      variance += d * d;
    }
    variance /= windows;
    ClientState state;
    state.slots_per_s = static_cast<float>(
        std::min(mean / window_s, cfg.max_slot_rate_per_s));
    state.var_per_s = static_cast<float>(
        std::max(variance / window_s, static_cast<double>(state.slots_per_s)));
    state.segment = user.segment;
    engine->clients_.push_back(state);
  }

  // Campaign book snapshot: everything that has arrived by the snapshot
  // time, laddered per segment in the exchange's bid order (bid desc, id
  // asc). The ladder is immutable; sessions consume demand from their own
  // lazily-materialized per-campaign counters.
  const double snapshot = config.EffectiveSnapshotTime();
  const std::vector<Campaign> campaigns = GenerateCampaignStream(cfg.campaigns);
  const int num_segments = std::max(1, cfg.population.num_segments);
  engine->ladders_.assign(static_cast<size_t>(num_segments), {});
  for (const Campaign& campaign : campaigns) {
    if (campaign.arrival_time > snapshot) {
      break;  // Sorted by arrival.
    }
    ++engine->active_campaigns_;
    for (int s = 0; s < num_segments; ++s) {
      if (!campaign.Targets(s)) {
        continue;
      }
      engine->ladders_[static_cast<size_t>(s)].push_back(
          LadderEntry{campaign.bid_per_impression, campaign.campaign_id,
                      campaign.target_impressions, campaign.frequency_cap_per_day});
    }
  }
  for (std::vector<LadderEntry>& ladder : engine->ladders_) {
    std::sort(ladder.begin(), ladder.end(), [](const LadderEntry& a, const LadderEntry& b) {
      if (a.bid != b.bid) {
        return a.bid > b.bid;
      }
      return a.campaign_id < b.campaign_id;
    });
  }
  return engine;
}

int64_t DecisionEngine::active_campaigns() const { return active_campaigns_; }

void DecisionEngine::Sell(Session& session, int segment, int64_t count,
                          std::vector<WireAd>* ads) const {
  const std::vector<LadderEntry>& ladder = ladders_[static_cast<size_t>(segment)];
  const double reserve = config_.pad.exchange.reserve_price;
  for (int64_t sold = 0; sold < count; ++sold) {
    // Top two live campaigns in ladder order decide winner and price — the
    // same sealed-bid second-price primitive the exchange runs per slot.
    const LadderEntry* top[2] = {nullptr, nullptr};
    for (const LadderEntry& entry : ladder) {
      const auto demand_it =
          session.demand_remaining.try_emplace(entry.campaign_id, entry.target_impressions)
              .first;
      if (demand_it->second <= 0) {
        continue;
      }
      if (entry.frequency_cap > 0) {
        const auto freq_it = session.frequency.find(entry.campaign_id);
        if (freq_it != session.frequency.end() && freq_it->second >= entry.frequency_cap) {
          continue;
        }
      }
      if (top[0] == nullptr) {
        top[0] = &entry;
      } else {
        top[1] = &entry;
        break;
      }
    }
    if (top[0] == nullptr) {
      return;  // Demand exhausted for this session.
    }
    Bid bids[2];
    int num_bids = 0;
    for (const LadderEntry* entry : top) {
      if (entry != nullptr) {
        bids[num_bids++] = Bid{entry->campaign_id, entry->bid};
      }
    }
    const AuctionOutcome outcome =
        RunSecondPriceAuction(std::span<const Bid>(bids, static_cast<size_t>(num_bids)), reserve);
    if (!outcome.sold) {
      return;  // Best remaining bid is at or below the reserve; so is the rest.
    }
    session.demand_remaining[outcome.winner_id] -= 1;
    session.frequency[outcome.winner_id] += 1;
    ads->push_back(WireAd{outcome.winner_id, outcome.clearing_price});
  }
}

WireResponse DecisionEngine::Decide(Session& session, const WireRequest& request) const {
  ++session.requests;
  WireResponse response;
  if (request.client_id >= static_cast<uint64_t>(clients_.size())) {
    response.status = ResponseStatus::kUnknownClient;
    return response;
  }
  if (request.slot_count == 0 || request.slot_count > config_.max_bundle_ads ||
      !std::isfinite(request.deadline_s) || request.deadline_s <= 0.0 ||
      request.deadline_s > kMaxRequestDeadlineS) {
    response.status = ResponseStatus::kBadRequest;
    return response;
  }

  const ClientState& client = clients_[static_cast<size_t>(request.client_id)];
  const ClientSlotEstimate estimate{
      .client_id = static_cast<int>(request.client_id),
      .slots_per_s = static_cast<double>(client.slots_per_s),
      .var_per_s = static_cast<double>(client.var_per_s),
      .queue_ahead = 0};
  // The sale budget the batch server would compute for this client and
  // horizon, minus the claims this session already committed (inventory
  // control: queued ads are promises against the same future slots).
  const int capacity =
      ConfidentCapacity(estimate, request.deadline_s, config_.pad.capacity_confidence);
  const int64_t spare = static_cast<int64_t>(capacity) - session.queued;

  if (spare > 0) {
    const int64_t bundle = std::min<int64_t>(request.slot_count, spare);
    Sell(session, client.segment, bundle, &response.ads);
    if (!response.ads.empty()) {
      response.decision = DecisionKind::kBundle;
      session.queued += static_cast<int64_t>(response.ads.size());
      return response;
    }
    // No paying demand for a confident client: fall through to the
    // real-time path, which will find the same empty book and answer kNone.
  }
  // No confident capacity (or no prefetchable demand): sell exactly one
  // impression at display time, the baseline's path.
  Sell(session, client.segment, 1, &response.ads);
  response.decision = response.ads.empty() ? DecisionKind::kNone : DecisionKind::kRealtime;
  return response;
}

std::vector<WireResponse> DecisionEngine::DecideBatch(
    const std::vector<WireRequest>& requests) const {
  Session session = NewSession();
  std::vector<WireResponse> responses;
  responses.reserve(requests.size());
  for (const WireRequest& request : requests) {
    responses.push_back(Decide(session, request));
  }
  return responses;
}

}  // namespace pad
