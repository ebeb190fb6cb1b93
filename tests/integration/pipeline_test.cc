// Remaining cross-cutting guarantees: instrumentation must not perturb
// results, moved containers must stay valid, and the external-trace path
// must behave exactly like the generated one.
#include <gtest/gtest.h>

#include "src/core/pad_simulation.h"
#include "src/trace/trace_io.h"

namespace pad {
namespace {

TEST(PipelineTest, EventLogDoesNotPerturbResults) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  const SimInputs inputs = GenerateInputs(config);

  const PadRunResult plain = RunPad(config, inputs);
  EventLog log;
  const PadRunResult instrumented = RunPad(config, inputs, &log);

  EXPECT_DOUBLE_EQ(plain.energy.radio.total_energy_j(),
                   instrumented.energy.radio.total_energy_j());
  EXPECT_EQ(plain.ledger.billed, instrumented.ledger.billed);
  EXPECT_EQ(plain.ledger.violated, instrumented.ledger.violated);
  EXPECT_EQ(plain.impressions_dispatched, instrumented.impressions_dispatched);
  EXPECT_DOUBLE_EQ(plain.ledger.billed_revenue, instrumented.ledger.billed_revenue);
}

TEST(PipelineTest, ExchangeSurvivesMove) {
  Campaign campaign;
  campaign.campaign_id = 1;
  campaign.arrival_time = 0.0;
  campaign.bid_per_impression = 0.002;
  campaign.target_impressions = 10;
  campaign.display_deadline_s = 3600.0;

  Exchange original(ExchangeConfig{}, {campaign});
  ASSERT_EQ(original.SellSlots(0.0, 3).size(), 3u);
  Exchange moved = std::move(original);
  // The bid heap holds pointers into node-stable map storage, which the move
  // transfers intact.
  EXPECT_EQ(moved.SellSlots(1.0, 3).size(), 3u);
  EXPECT_EQ(moved.open_demand(), 4);
  EXPECT_EQ(moved.ledger().totals().sold, 6);
}

TEST(PipelineTest, TraceFromFileMatchesInMemoryRun) {
  PadConfig config = QuickConfig();
  config.population.num_users = 30;
  const SimInputs generated = GenerateInputs(config);

  // Round-trip the population through CSV, as an external-trace user would.
  const std::string path = ::testing::TempDir() + "/pipeline_trace.csv";
  WriteTraceFile(generated.population, path);
  StatusOr<Population> population = LoadTraceFile(path);
  ASSERT_TRUE(population.ok()) << population.status().ToString();
  SimInputs loaded{*std::move(population), AppCatalog::TopFifteen(), generated.campaigns};

  const PadRunResult from_memory = RunPad(config, generated);
  const PadRunResult from_file = RunPad(config, loaded);
  EXPECT_EQ(from_memory.service.slots, from_file.service.slots);
  EXPECT_EQ(from_memory.ledger.billed, from_file.ledger.billed);
  EXPECT_DOUBLE_EQ(from_memory.energy.radio.total_energy_j(),
                   from_file.energy.radio.total_energy_j());
}

TEST(PipelineTest, CalibrationBucketsCoverDispatchedImpressions) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  const SimInputs inputs = GenerateInputs(config);
  const PadRunResult pad = RunPad(config, inputs);
  int64_t planned = 0;
  for (const CalibrationBucket& bucket : pad.calibration) {
    planned += bucket.planned;
    EXPECT_LE(bucket.delivered, bucket.planned);
    EXPECT_GE(bucket.PredictedRate(), 0.0);
    EXPECT_LE(bucket.PredictedRate(), 1.0);
  }
  // Every server-sold impression resolves into exactly one bucket (fallback
  // sales never enter placements).
  EXPECT_EQ(planned, pad.impressions_sold);
}

}  // namespace
}  // namespace pad
