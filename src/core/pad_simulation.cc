#include "src/core/pad_simulation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>

#include "src/apps/workload.h"
#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/core/pad_client.h"
#include "src/core/pad_server.h"
#include "src/prediction/slot_series.h"

namespace pad {

PadConfig AlignInputsConfig(const PadConfig& config) {
  PadConfig cfg = config;
  cfg.population.num_apps = AppCatalog::TopFifteen().size();
  cfg.campaigns.horizon_s = cfg.population.horizon_s;
  cfg.campaigns.display_deadline_s = cfg.deadline_s;
  cfg.campaigns.num_segments = cfg.population.num_segments;
  return cfg;
}

SimContext MakeSimContext(const PadConfig& config) {
  const std::string error = ValidateConfig(config);
  PAD_CHECK_MSG(error.empty(), error.c_str());
  SimContext context;
  context.config = config;
  context.t0 = config.WarmupS();
  context.window_s = config.prediction_window_s;
  context.epoch_s = config.EpochS();
  context.warmup_windows = static_cast<int>(std::lround(context.t0 / context.window_s));
  context.epochs_per_window =
      static_cast<int>(std::lround(context.window_s / context.epoch_s));
  return context;
}

SimInputs GenerateInputs(const SimContext& context) {
  const PadConfig cfg = AlignInputsConfig(context.config);
  SimInputs inputs{GeneratePopulation(cfg.population), AppCatalog::TopFifteen(),
                   GenerateCampaignStream(cfg.campaigns)};
  return inputs;
}

SimInputs GenerateInputs(const PadConfig& config) {
  return GenerateInputs(MakeSimContext(config));
}

BaselineResult RunBaseline(const SimContext& context, const SimInputs& inputs) {
  const PadConfig& config = context.config;
  const double t0 = context.t0;
  const double horizon = inputs.population.horizon_s;
  PAD_CHECK_MSG(horizon > t0, "horizon must extend past the warmup");

  // Expanding with min_session_start == t0 skips the warmup sessions without
  // copying the population; one scratch workload and one radio machine per
  // interface are reused across users so steady state allocates nothing per
  // user.
  WorkloadOptions options;
  options.on_demand_ads = true;
  options.app_content = true;
  options.min_session_start = t0;

  BaselineResult result;
  result.scored_days = (horizon - t0) / kDay;

  // Energy: each device's transfer schedule through its own radio.
  struct SegmentedSlot {
    double time;
    int segment;
  };
  std::vector<SegmentedSlot> all_slots;
  RadioMachine cell(config.radio);
  std::optional<RadioMachine> wifi;
  if (config.wifi.enabled) {
    wifi.emplace(config.wifi_radio);
  }
  UserWorkload scratch;
  std::vector<Transfer> on_cell;
  std::vector<Transfer> on_wifi;
  for (size_t u = 0; u < inputs.population.users.size(); ++u) {
    const UserTrace& user = inputs.population.users[u];
    ExpandUserInto(inputs.catalog, user, options, scratch);
    if (config.wifi.enabled) {
      // Route each transfer by availability at request time, mirroring what
      // the PAD client does, so WiFi helps both systems equally.
      on_cell.clear();
      on_wifi.clear();
      for (const Transfer& transfer : scratch.transfers) {
        (WifiAvailableAt(config.wifi, user.user_id, transfer.request_time) ? on_wifi : on_cell)
            .push_back(transfer);
      }
      cell.Reset();
      cell.SubmitAll(on_cell);
      cell.Finalize(std::max(horizon, cell.busy_until()));
      result.energy.radio.Merge(cell.report());
      wifi->Reset();
      wifi->SubmitAll(on_wifi);
      wifi->Finalize(std::max(horizon, wifi->busy_until()));
      result.energy.radio.Merge(wifi->report());
    } else {
      cell.Reset();
      cell.SubmitAll(scratch.transfers);
      cell.Finalize(std::max(horizon, cell.busy_until()));
      result.energy.radio.Merge(cell.report());
    }
    result.energy.local_j += scratch.local_energy_j;
    for (const SlotEvent& slot : scratch.slots) {
      all_slots.push_back(SegmentedSlot{slot.time, user.segment});
    }
  }

  // Market: real-time auction per slot, display at sale time.
  std::sort(all_slots.begin(), all_slots.end(),
            [](const SegmentedSlot& a, const SegmentedSlot& b) { return a.time < b.time; });
  ExchangeConfig exchange_config = config.exchange;
  exchange_config.num_segments = config.population.num_segments;
  Exchange exchange(exchange_config, inputs.campaigns);
  for (const SegmentedSlot& slot : all_slots) {
    ++result.service.slots;
    const std::vector<SoldImpression>& sold = exchange.SellSlots(slot.time, 1, slot.segment);
    if (sold.empty()) {
      ++result.service.unfilled;
      continue;
    }
    exchange.ledger().RecordDisplay(sold.front().impression_id, slot.time);
    ++result.service.fallback_fetches;  // Every baseline display is an on-demand fetch.
  }
  exchange.ledger().ExpireDeadlines(horizon + config.deadline_s);
  result.ledger = exchange.ledger().totals();
  return result;
}

BaselineResult RunBaseline(const PadConfig& config, const SimInputs& inputs) {
  return RunBaseline(MakeSimContext(config), inputs);
}

namespace {

// One client's chronologically merged input events for the scored phase.
struct FeedEvent {
  double time = 0.0;
  bool is_slot = false;
  Transfer transfer;  // Valid when !is_slot.
};

// A client's arena-backed feed: sorted events plus a replay cursor.
struct ClientFeed {
  const FeedEvent* events = nullptr;
  uint32_t count = 0;
  uint32_t next = 0;
};

// One pending client event in the run queue. Time ties break by schedule
// order (seq): epoch events own seqs [0, num_epochs), initial feed events
// take the next seqs in client order, and each executed feed event assigns
// its successor the next global seq. That order is part of every digest.
struct PendingEvent {
  double time = 0.0;
  uint64_t seq = 0;
  uint32_t client = 0;
};

struct PendingEventLater {
  bool operator()(const PendingEvent& a, const PendingEvent& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

using PendingEventQueue =
    std::priority_queue<PendingEvent, std::vector<PendingEvent>, PendingEventLater>;

}  // namespace

PadRunResult RunPad(const SimContext& context, const SimInputs& inputs, EventLog* event_log) {
  const PadConfig& config = context.config;
  const double t0 = context.t0;
  const double horizon = inputs.population.horizon_s;
  const double window_s = context.window_s;
  const double epoch_s = context.epoch_s;
  PAD_CHECK_MSG(horizon > t0, "horizon must extend past the warmup");
  PAD_CHECK(window_s > 0.0 && epoch_s > 0.0);

  // The epoch must tile the prediction window so every window boundary is an
  // epoch boundary.
  const int epochs_per_window = context.epochs_per_window;
  PAD_CHECK_MSG(std::fabs(window_s / epoch_s - epochs_per_window) < 1e-9 &&
                    epochs_per_window >= 1,
                "prediction window must be a multiple of the sale epoch");

  // --- Build clients with warm predictors -------------------------------
  const int warmup_windows = context.warmup_windows;
  PAD_CHECK_MSG(std::fabs(t0 / window_s - warmup_windows) < 1e-9,
                "warmup must be a whole number of prediction windows");

  std::vector<std::unique_ptr<PadClient>> clients;
  clients.reserve(inputs.population.users.size());
  int windows_per_day = 0;
  {
    WorkloadOptions slot_options;
    slot_options.on_demand_ads = false;
    slot_options.app_content = false;
    UserWorkload slot_scratch;
    for (const UserTrace& user : inputs.population.users) {
      ExpandUserInto(inputs.catalog, user, slot_options, slot_scratch);
      const SlotSeries series = BinSlots(slot_scratch.slots, horizon, window_s);
      windows_per_day = series.WindowsPerDay();

      std::unique_ptr<SlotPredictor> predictor;
      if (config.use_noisy_oracle) {
        PAD_CHECK(config.oracle_noise_sigma >= 0.0);
        predictor = std::make_unique<NoisyOraclePredictor>(
            series.counts, config.oracle_noise_sigma,
            config.seed ^ (0x5eedull + static_cast<uint64_t>(user.user_id)));
      } else {
        predictor = MakePredictor(config.predictor, windows_per_day);
        for (int w = 0; w < warmup_windows && w < series.num_windows(); ++w) {
          predictor->Observe(w, series.counts[static_cast<size_t>(w)]);
        }
      }
      clients.push_back(std::make_unique<PadClient>(user.user_id, user.segment, config,
                                                    std::move(predictor)));
      clients.back()->set_event_log(event_log);
    }
  }

  ExchangeConfig exchange_config = config.exchange;
  exchange_config.num_segments = config.population.num_segments;
  Exchange exchange(exchange_config, inputs.campaigns);
  if (event_log != nullptr) {
    exchange.ledger().set_observer(event_log);
  }
  PadServer server(config, clients, exchange, config.seed ^ 0xad5e17ull, event_log);

  PadRunResult result;
  result.scored_days = (horizon - t0) / kDay;

  // Epoch (and window-rollover) boundaries. Accumulated with repeated
  // addition, exactly like the legacy scheduling loop, so the boundary
  // times are bit-identical.
  std::vector<double> epoch_times;
  for (double t = t0; t + config.deadline_s <= horizon + 1e-9; t += epoch_s) {
    epoch_times.push_back(t);
  }
  PAD_CHECK_MSG(!epoch_times.empty(), "no epochs fit between warmup and horizon");

  // --- Build the client feeds in one arena ------------------------------
  WorkloadOptions options;
  options.on_demand_ads = false;
  options.app_content = true;
  options.min_session_start = t0;

  Arena arena;
  std::vector<ClientFeed> feeds(clients.size());
  uint64_t next_seq = epoch_times.size();
  std::vector<PendingEvent> queue_storage;
  queue_storage.reserve(clients.size());
  PendingEventQueue queue(PendingEventLater{}, std::move(queue_storage));
  {
    UserWorkload scratch;
    for (size_t c = 0; c < clients.size(); ++c) {
      ExpandUserInto(inputs.catalog, inputs.population.users[c], options, scratch);
      result.energy.local_j += scratch.local_energy_j;

      ClientFeed& feed = feeds[c];
      feed.count = static_cast<uint32_t>(scratch.slots.size() + scratch.transfers.size());
      FeedEvent* events = arena.NewArray<FeedEvent>(feed.count);
      feed.events = events;
      size_t n = 0;
      for (const SlotEvent& slot : scratch.slots) {
        events[n++] = FeedEvent{slot.time, true, {}};
      }
      for (const Transfer& transfer : scratch.transfers) {
        events[n++] = FeedEvent{transfer.request_time, false, transfer};
      }
      std::sort(events, events + feed.count,
                [](const FeedEvent& a, const FeedEvent& b) { return a.time < b.time; });
      if (feed.count > 0) {
        queue.push(PendingEvent{events[0].time, next_seq++, static_cast<uint32_t>(c)});
      }
    }
  }

  // --- Run --------------------------------------------------------------
  // Two sources feed the merged event order: epoch boundaries (time-sorted,
  // all seqs below every client seq, so an epoch wins any time tie) walk a
  // cursor, and client events pop from the queue.
  size_t epoch_cursor = 0;
  for (;;) {
    const bool have_epoch = epoch_cursor < epoch_times.size();
    const bool have_client = !queue.empty();
    if (have_epoch &&
        (!have_client || epoch_times[epoch_cursor] <= queue.top().time)) {
      const double t = epoch_times[epoch_cursor];
      const int k = static_cast<int>(epoch_cursor);
      ++epoch_cursor;
      if (k % epochs_per_window == 0) {
        const int abs_window = warmup_windows + k / epochs_per_window;
        for (auto& client : clients) {
          client->StartWindow(t, abs_window);
        }
      }
      server.RunEpoch(t);
      continue;
    }
    if (!have_client || queue.top().time > horizon) {
      break;
    }
    const PendingEvent pending = queue.top();
    queue.pop();
    ClientFeed& feed = feeds[pending.client];
    const FeedEvent& event = feed.events[feed.next++];
    if (event.is_slot) {
      clients[pending.client]->OnSlot(pending.time, exchange, result.service);
    } else {
      clients[pending.client]->OnContentTransfer(event.transfer);
    }
    if (feed.next < feed.count) {
      queue.push(PendingEvent{feed.events[feed.next].time, next_seq++, pending.client});
    }
  }

  // --- Close out ----------------------------------------------------------
  exchange.ledger().ExpireDeadlines(horizon + config.deadline_s);
  server.FinalizeCalibration();
  for (auto& client : clients) {
    client->FinishRadio(horizon);
    result.energy.radio.Merge(client->radio_report());
    result.service.expired_cache_drops += client->cache().expired_drops();
    result.faults.Merge(client->fault_stats());
  }
  result.faults.Merge(server.fault_stats());
  result.ledger = exchange.ledger().totals();
  result.impressions_sold = server.impressions_sold();
  result.impressions_dispatched = server.impressions_dispatched();
  result.calibration = server.calibration();
  return result;
}

PadRunResult RunPad(const PadConfig& config, const SimInputs& inputs, EventLog* event_log) {
  return RunPad(MakeSimContext(config), inputs, event_log);
}

Comparison RunComparison(const PadConfig& config) {
  const SimContext context = MakeSimContext(config);
  const SimInputs inputs = GenerateInputs(context);
  Comparison comparison;
  comparison.baseline = RunBaseline(context, inputs);
  comparison.pad = RunPad(context, inputs);
  return comparison;
}

PadConfig QuickConfig() {
  PadConfig config;
  config.population.num_users = 40;
  config.population.horizon_s = 10.0 * kDay;
  config.warmup_days = 7;
  config.prediction_window_s = 1.0 * kHour;
  config.campaigns.arrivals_per_day = 50.0;
  return config;
}

}  // namespace pad
