// The simulator workloads.
//
//   sim_bigmarket  one 2000-user market over 4 days (3 warm-up, 1 scored),
//                  single thread: RunBaseline + RunPad with an EventLog +
//                  digests per timed call. Input generation is set-up.
//   sim_stream     2000 users in 125-user markets over 9 days, 5 % of them
//                  heavy (8x the session rate), through RunShardedResumable
//                  on 2 workers with work stealing and a fresh fsync'd
//                  journal per call.
//
// Every call's PAD, baseline and event digests must equal the pins in
// perfbench/pins.txt for the call's input class.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/apps/app_profile.h"
#include "src/auction/campaign.h"
#include "src/common/units.h"
#include "src/core/checkpoint.h"
#include "src/core/event_log.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"
#include "src/trace/generator.h"

namespace perfbench {
namespace {

// sim_stream's set-up runs once before the timed calls and kSetupRepeats - 1
// more times after them; setup_s is the median. Repeating only after the
// timed calls leaves them the heap of a single set-up.
constexpr int kSetupRepeats = 5;

// Calls last about a second, so a run holds a dozen or more of them.
constexpr int kBigMarketUsers = 2000;
constexpr double kBigMarketDays = 4.0;
constexpr int kBigMarketWarmupDays = 3;
constexpr int kStreamUsers = 2000;
constexpr double kStreamDays = 9.0;
constexpr int kStreamWarmupDays = 7;
constexpr int64_t kStreamMarketUsers = 125;
constexpr int kStreamWorkers = 2;
// The set-up warm-up call of sim_stream covers this many users (4 markets).
constexpr int kStreamWarmupUsers = 500;
// Markets the traced run replays through SimulateMarket, the journal writer
// and the fold, to time those layers one call at a time.
constexpr int kReplayMarkets = 4;

// Demand scales with supply, as in the repository's bench configs.
pad::PadConfig SimConfig(int users, double days, int warmup_days, uint64_t seed_class) {
  pad::PadConfig config;
  config.population.num_users = users;
  config.population.horizon_s = days * pad::kDay;
  config.warmup_days = warmup_days;
  config.campaigns.arrivals_per_day = 1.5 * static_cast<double>(users);
  config.population.seed = 42 + 1000 * seed_class;
  config.campaigns.seed = 7 + 1000 * seed_class;
  config.seed = 1234 + 1000 * seed_class;
  return config;
}

pad::PadConfig StreamConfig(int users, uint64_t seed_class) {
  pad::PadConfig config = SimConfig(users, kStreamDays, kStreamWarmupDays, seed_class);
  config.market_users = kStreamMarketUsers;
  config.population.skew_heavy_fraction = 0.05;
  config.population.skew_rate_multiplier = 8.0;
  return config;
}

// Per-call figures both simulator workloads report.
struct CallFigures {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// Runs calls until `seconds` of timed work have elapsed. In a traced run,
// calls alternate untraced and traced (at least one of each), and each
// traced call gets the input class of the untraced call before it, so one
// run yields the tracing overhead on the same inputs.
// `call(k, seed_class, traced, figures)` returns false on a failed check.
template <typename Call>
void TimedCalls(const RunOptions& options, int64_t users, RunResult& result, Call call) {
  std::vector<double> op_time_us[2];
  std::vector<double> cpu_us[2];
  double elapsed = 0.0;
  const int min_calls = options.trace ? 2 : 1;
  for (int k = 0; k < min_calls || elapsed < options.seconds; ++k) {
    const bool traced = options.trace && k % 2 == 1;
    CallFigures figures;
    const uint64_t seed_class = InputSeedClass(options.seed, options.trace ? k / 2 : k);
    const bool ok = call(k, seed_class, traced, &figures);
    ++result.attempted;
    if (!ok) {
      ++result.failed;
    }
    elapsed += figures.wall_s;
    op_time_us[traced].push_back(figures.wall_s * 1e6 / static_cast<double>(users));
    cpu_us[traced].push_back(figures.cpu_s * 1e6 / static_cast<double>(users));
    result.notes.push_back("call " + std::to_string(k) + (traced ? " traced" : "") +
                           ": wall " + std::to_string(figures.wall_s) + " s, cpu " +
                           std::to_string(figures.cpu_s) + " s, users/s " +
                           std::to_string(static_cast<double>(users) / figures.wall_s));
  }
  result.metrics["op_time_us"] = Median(op_time_us[0]);
  result.metrics["cpu_us_per_op"] = Median(cpu_us[0]);
  result.notes.push_back("users_per_s " + std::to_string(1e6 / Median(op_time_us[0])));
  if (options.trace) {
    result.metrics["traced.op_time_us"] = Median(op_time_us[1]);
    result.metrics["traced.cpu_us_per_op"] = Median(cpu_us[1]);
    result.metrics["tracing.overhead_op_time_us"] =
        result.metrics["traced.op_time_us"] - result.metrics["op_time_us"];
    result.metrics["tracing.overhead_cpu_us_per_op"] =
        result.metrics["traced.cpu_us_per_op"] - result.metrics["cpu_us_per_op"];
  }
}

bool CheckDigests(bool have_pin, const SimDigests& pin, const SimDigests& got,
                  uint64_t seed_class, RunResult& result) {
  if (have_pin && got == pin) {
    return true;
  }
  char line[192];
  std::snprintf(line, sizeof(line), "FAILED: class %llu: %s; got %016llx %016llx %016llx",
                static_cast<unsigned long long>(seed_class),
                have_pin ? "digests differ from the pin" : "no pin for this workload and class",
                static_cast<unsigned long long>(got.pad),
                static_cast<unsigned long long>(got.baseline),
                static_cast<unsigned long long>(got.events));
  result.notes.push_back(line);
  return false;
}

// Layer figures of one traced call; medians over traced calls are reported.
struct LayerSamples {
  std::map<std::string, std::vector<double>> samples;
  void Add(const std::string& name, double value) { samples[name].push_back(value); }
  void Fold(RunResult& result) const {
    for (const auto& [name, values] : samples) {
      result.metrics[name] = Median(values);
    }
  }
};

void AddCounts(const pad::Comparison& c, int64_t sessions, RunResult& result) {
  const pad::PadRunResult& pad = c.pad;
  const pad::LedgerTotals& ledger = pad.ledger;
  auto& m = result.metrics;
  m["overbook.dispatched"] = static_cast<double>(pad.impressions_dispatched);
  m["overbook.replication"] = pad.MeanReplication();
  m["overbook.billed_per_dispatch"] =
      pad.impressions_dispatched > 0 ? static_cast<double>(ledger.billed) /
                                           static_cast<double>(pad.impressions_dispatched)
                                     : 0.0;
  m["auction.sold"] = static_cast<double>(ledger.sold);
  m["auction.billed"] = static_cast<double>(ledger.billed);
  m["auction.violated"] = static_cast<double>(ledger.violated);
  m["auction.excess_displays"] = static_cast<double>(ledger.excess_displays);
  m["trace.sessions"] = static_cast<double>(sessions);
  m["apps.slots"] = static_cast<double>(pad.service.slots);
  m["radio.transfers_pad"] = static_cast<double>(pad.energy.radio.total_transfers());
  m["radio.transfers_baseline"] = static_cast<double>(c.baseline.energy.radio.total_transfers());
  m["core.cache_hit_rate"] = pad.service.CacheHitRate();
  m["core.fallback_fetches"] = static_cast<double>(pad.service.fallback_fetches);
}

}  // namespace

RunResult RunSimBigMarket(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  // Set-up: the steps of GenerateInputs, spelled out so that a traced run
  // gives the population trace and the campaign stream a span each. Every
  // call gets the inputs of its own class, generated just before it;
  // setup_s is the median of these generations.
  std::vector<double> setup_s;
  LayerSamples layers;
  auto set_up = [&](const pad::SimContext& context, int k) {
    const int64_t start = NowNs();
    ScopedSpan setup(tracer, "setup", -1, k);
    const pad::PadConfig aligned = pad::AlignInputsConfig(context.config);
    ScopedSpan generate(tracer, "trace.generate", setup.id(), k);
    pad::Population population = pad::GeneratePopulation(aligned.population);
    generate.End();
    ScopedSpan campaigns(tracer, "auction.campaign_stream", setup.id(), k);
    std::vector<pad::Campaign> stream = pad::GenerateCampaignStream(aligned.campaigns);
    campaigns.End();
    pad::SimInputs inputs{std::move(population), pad::AppCatalog::TopFifteen(), std::move(stream)};
    setup.End();
    setup_s.push_back(SecondsSince(start));
    if (tracer.enabled()) {
      layers.Add("trace.generate_ms", tracer.Ms(generate.id()));
      layers.Add("auction.campaign_stream_ms", tracer.Ms(campaigns.id()));
    }
    return inputs;
  };

  pad::Comparison last;
  int64_t events = 0;
  int64_t sessions = 0;
  TimedCalls(options, kBigMarketUsers, result,
             [&](int k, uint64_t seed_class, bool traced, CallFigures* figures) {
               SimDigests pin;
               const bool have_pin =
                   LookupPin(options.pins_path, options.workload, seed_class, &pin);
               const pad::SimContext context = pad::MakeSimContext(SimConfig(
                   kBigMarketUsers, kBigMarketDays, kBigMarketWarmupDays, seed_class));
               const pad::SimInputs inputs = set_up(context, k);

               Tracer off(false, 0);
               Tracer& t = traced ? tracer : off;
               const double cpu0 = ProcessCpuSeconds();
               const int64_t start = NowNs();
               ScopedSpan call(t, "sim.call", -1, k);
               pad::Comparison comparison;
               pad::EventLog log;
               SimDigests got;
               ScopedSpan baseline(t, "core.baseline", call.id(), k);
               comparison.baseline = pad::RunBaseline(context, inputs);
               baseline.End();
               ScopedSpan run_pad(t, "core.pad", call.id(), k);
               comparison.pad = pad::RunPad(context, inputs, &log);
               run_pad.End();
               ScopedSpan digest(t, "core.event_digest", call.id(), k);
               got.events = log.Digest();
               digest.End();
               got.pad = pad::MetricsDigest(comparison.pad);
               got.baseline = pad::MetricsDigest(comparison.baseline);
               call.End();
               figures->wall_s = SecondsSince(start);
               figures->cpu_s = ProcessCpuSeconds() - cpu0;
               if (traced) {
                 layers.Add("core.baseline_ms", t.Ms(baseline.id()));
                 layers.Add("core.pad_ms", t.Ms(run_pad.id()));
                 layers.Add("core.event_digest_ms", t.Ms(digest.id()));
                 layers.Add("core.simulate_ms", t.Ms(call.id()));
               }
               events = static_cast<int64_t>(log.events().size());
               sessions = 0;
               for (const pad::UserTrace& user : inputs.population.users) {
                 sessions += static_cast<int64_t>(user.sessions.size());
               }
               last = std::move(comparison);
               return CheckDigests(have_pin, pin, got, seed_class, result);
             });
  result.metrics["peak_rss_mib"] = PeakRssMiB();
  result.metrics["setup_s"] = Median(setup_s);
  if (options.trace) {
    result.metrics["traced.setup_s"] = result.metrics["setup_s"];
    layers.Fold(result);
    AddCounts(last, sessions, result);
    result.metrics["core.events"] = static_cast<double>(events);
  }
  return result;
}

namespace {

// A journal path no earlier call left behind; the caller removes it.
std::string FreshJournal(const RunOptions& options, int call) {
  const std::string path = options.work_dir + "/stream-" + std::to_string(getpid()) + "-" +
                           std::to_string(call) + ".ckpt";
  std::filesystem::remove(path);
  return path;
}

pad::ShardEngineOptions StreamOptions(const std::string& journal) {
  pad::ShardEngineOptions engine;
  engine.shards = kStreamWorkers;
  engine.threads = kStreamWorkers;
  engine.schedule = pad::ScheduleMode::kStealing;
  engine.run_baseline = true;
  engine.event_digests = false;
  engine.checkpoint_path = journal;
  engine.checkpoint_fsync = true;
  return engine;
}

// One RunShardedResumable call on a fresh journal, removed afterwards.
// Returns false (with a note) when the engine failed or resumed anything.
bool StreamCall(const RunOptions& options, const pad::PadConfig& config, int call,
                pad::ShardedComparison* out, int64_t* journal_bytes, RunResult& result) {
  const std::string journal = FreshJournal(options, call);
  pad::StatusOr<pad::ShardedComparison> run =
      pad::RunShardedResumable(config, StreamOptions(journal));
  std::error_code ignored;
  *journal_bytes = static_cast<int64_t>(std::filesystem::file_size(journal, ignored));
  std::filesystem::remove(journal, ignored);
  if (!run.ok()) {
    result.notes.push_back("FAILED: RunShardedResumable: " + run.status().ToString());
    return false;
  }
  *out = std::move(*run);
  if (out->resumed_markets != 0 || out->interrupted || out->workers_used != kStreamWorkers) {
    result.notes.push_back("FAILED: resumed_markets=" + std::to_string(out->resumed_markets) +
                           " interrupted=" + std::to_string(out->interrupted) +
                           " workers_used=" + std::to_string(out->workers_used));
    return false;
  }
  return true;
}

// Replays a few markets one call at a time through the public per-market
// pieces the engine is built from, to time the journal append and the fold.
// Each replayed market must reproduce the engine's digests for it.
void ReplayMarkets(const RunOptions& options, const pad::PadConfig& config,
                   const pad::ShardedComparison& engine_run, Tracer& tracer,
                   RunResult& result) {
  const pad::PadConfig aligned = pad::AlignInputsConfig(config);
  const std::vector<int64_t> boundaries =
      pad::MarketBoundaries(aligned.population.num_users, aligned.market_users);
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  const std::string journal = FreshJournal(options, -1);
  auto writer = pad::CheckpointWriter::Create(
      journal, pad::JournalHeaderFor(aligned, num_markets, true, false), true);
  if (!writer.ok()) {
    result.notes.push_back("replay: journal: " + writer.status().ToString());
    return;
  }
  const int32_t replay = tracer.Begin("replay", -1, -1);
  pad::PopulationStream stream(aligned.population);
  std::vector<pad::MarketRecord> records(static_cast<size_t>(num_markets));
  std::vector<double> append_ms;
  for (int i = 0; i < kReplayMarkets; ++i) {
    const int market = i * (num_markets - 1) / (kReplayMarkets - 1);
    const int32_t simulate = tracer.Begin("core.simulate_market", replay, market);
    records[static_cast<size_t>(market)] =
        pad::SimulateMarket(aligned, boundaries, market, stream, true, false);
    tracer.End(simulate);
    const pad::MarketRecord& record = records[static_cast<size_t>(market)];
    ++result.attempted;
    if (record.pad_digest != engine_run.market_pad_digests[static_cast<size_t>(market)] ||
        record.baseline_digest !=
            engine_run.market_baseline_digests[static_cast<size_t>(market)]) {
      ++result.failed;
      result.notes.push_back("FAILED: replayed market " + std::to_string(market) +
                             " differs from the engine's");
    }
    const int32_t append = tracer.Begin("core.checkpoint_append", replay, market);
    const pad::Status appended = (*writer)->Append(record);
    tracer.End(append);
    append_ms.push_back(tracer.Ms(append));
    if (!appended.ok()) {
      result.notes.push_back("replay: append: " + appended.ToString());
    }
  }
  pad::ShardedComparison merged;
  const int32_t fold = tracer.Begin("core.fold", replay, -1);
  pad::FoldMarketRecords(records, true, false, &merged);
  tracer.End(fold);
  tracer.End(replay);
  writer->reset();
  std::error_code ignored;
  std::filesystem::remove(journal, ignored);
  result.metrics["core.checkpoint_append_ms"] = Median(append_ms);
  result.metrics["core.fold_ms"] = tracer.Ms(fold);
}

}  // namespace

RunResult RunSimStream(const RunOptions& options, Tracer& tracer) {
  RunResult result;

  // Set-up: a fixed, untimed warm-up call over the first markets of the
  // population (thread start-up, allocator, journal directory).
  std::vector<double> setup_s;
  auto set_up = [&] {
    const int64_t start = NowNs();
    ScopedSpan setup(tracer, "setup", -1, -1);
    pad::ShardedComparison warm;
    int64_t bytes = 0;
    if (!StreamCall(options, StreamConfig(kStreamWarmupUsers, 0), -2, &warm, &bytes, result)) {
      ++result.attempted;
      ++result.failed;
    }
    setup.End();
    setup_s.push_back(SecondsSince(start));
  };
  set_up();

  LayerSamples layers;
  pad::ShardedComparison last;
  pad::PadConfig last_config;
  TimedCalls(options, kStreamUsers, result, [&](int k, uint64_t seed_class, bool traced,
                                                 CallFigures* figures) {
    SimDigests pin;
    const bool have_pin = LookupPin(options.pins_path, options.workload, seed_class, &pin);
    const pad::PadConfig config = StreamConfig(kStreamUsers, seed_class);
    Tracer off(false, 0);
    Tracer& t = traced ? tracer : off;
    const double cpu0 = ProcessCpuSeconds();
    const int64_t start = NowNs();
    ScopedSpan call(t, "sim.call", -1, k);
    pad::ShardedComparison run;
    int64_t journal_bytes = 0;
    const bool ran = StreamCall(options, config, k, &run, &journal_bytes, result);
    call.End();
    figures->wall_s = SecondsSince(start);
    figures->cpu_s = ProcessCpuSeconds() - cpu0;
    if (!ran) {
      return false;
    }
    if (traced) {
      std::vector<double> busy = run.market_busy_s;
      std::vector<double> worker_busy(static_cast<size_t>(run.workers_used), 0.0);
      for (size_t m = 0; m < busy.size(); ++m) {
        const int worker = run.market_workers[m];
        if (worker >= 0 && worker < run.workers_used) {
          worker_busy[static_cast<size_t>(worker)] += busy[m];
        }
      }
      const double total = std::accumulate(worker_busy.begin(), worker_busy.end(), 0.0);
      const double max = *std::max_element(worker_busy.begin(), worker_busy.end());
      std::sort(busy.begin(), busy.end());
      layers.Add("core.market_ms_p50", SortedQuantile(busy, 0.5) * 1e3);
      layers.Add("core.market_ms_max", busy.back() * 1e3);
      layers.Add("common.scheduler.busy_imbalance",
                 total > 0.0 ? max / (total / static_cast<double>(worker_busy.size())) : 0.0);
      layers.Add("trace.generate_ms", run.generate_seconds * 1e3);
      layers.Add("core.simulate_ms", run.simulate_seconds * 1e3);
      layers.Add("core.checkpoint_bytes", static_cast<double>(journal_bytes));
      layers.Add("common.scheduler.tasks_stolen", static_cast<double>(run.tasks_stolen));
    }
    const SimDigests got{run.combined_pad_digest, run.combined_baseline_digest,
                         run.combined_event_digest};
    last = std::move(run);
    last_config = config;
    return CheckDigests(have_pin, pin, got, seed_class, result);
  });
  result.metrics["peak_rss_mib"] = PeakRssMiB();
  for (int r = 1; r < kSetupRepeats; ++r) {
    set_up();
  }
  result.metrics["setup_s"] = Median(setup_s);
  if (options.trace) {
    result.metrics["traced.setup_s"] = result.metrics["setup_s"];
    layers.Fold(result);
    AddCounts(last.totals, last.total_sessions, result);
    result.metrics["common.scheduler.workers_used"] = static_cast<double>(last.workers_used);
    ReplayMarkets(options, last_config, last, tracer, result);
  }
  return result;
}

}  // namespace perfbench
