#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "src/common/units.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

// Parses text that the test expects to be well formed.
Population Parse(std::string_view text) {
  Population population;
  std::string error;
  EXPECT_TRUE(TryParseTrace(text, &population, &error)) << error;
  return population;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  PopulationConfig config;
  config.num_users = 20;
  config.horizon_s = 3.0 * kDay;
  config.num_segments = 4;
  const Population original = GeneratePopulation(config);

  std::ostringstream out;
  WriteTrace(original, out);
  const Population loaded = Parse(out.str());

  EXPECT_DOUBLE_EQ(loaded.horizon_s, original.horizon_s);
  ASSERT_EQ(loaded.users.size(), original.users.size());
  for (size_t u = 0; u < original.users.size(); ++u) {
    const UserTrace& a = original.users[u];
    const UserTrace& b = loaded.users[u];
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.segment, b.segment);
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (size_t s = 0; s < a.sessions.size(); ++s) {
      EXPECT_EQ(a.sessions[s].app_id, b.sessions[s].app_id);
      EXPECT_DOUBLE_EQ(a.sessions[s].start_time, b.sessions[s].start_time);
      EXPECT_DOUBLE_EQ(a.sessions[s].duration_s, b.sessions[s].duration_s);
    }
  }
}

TEST(TraceIoTest, ParseWithoutHorizonDerivesFromSessions) {
  const std::string text =
      "user_id,app_id,start_time,duration_s\n"
      "0,1,1000,60\n"
      "0,2,90000,120\n";
  const Population population = Parse(text);
  // Max end = 90120 s -> rounded up to 2 days.
  EXPECT_DOUBLE_EQ(population.horizon_s, 2.0 * kDay);
}

TEST(TraceIoTest, LegacyTraceWithoutSegmentColumnLoads) {
  const std::string text =
      "user_id,app_id,start_time,duration_s\n"
      "3,1,1000,60\n";
  const Population population = Parse(text);
  ASSERT_EQ(population.users.size(), 1u);
  EXPECT_EQ(population.users[0].segment, 0);
}

TEST(TraceIoTest, ParseSortsSessionsWithinUser) {
  const std::string text =
      "user_id,app_id,start_time,duration_s\n"
      "0,1,500,10\n"
      "0,1,100,10\n"
      "0,1,300,10\n";
  const Population population = Parse(text);
  ASSERT_EQ(population.users.size(), 1u);
  const auto& sessions = population.users[0].sessions;
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_DOUBLE_EQ(sessions[0].start_time, 100.0);
  EXPECT_DOUBLE_EQ(sessions[2].start_time, 500.0);
}

TEST(TraceIoTest, ParseGroupsUsers) {
  const std::string text =
      "user_id,app_id,start_time,duration_s\n"
      "3,0,10,5\n"
      "1,0,20,5\n"
      "3,0,30,5\n";
  const Population population = Parse(text);
  ASSERT_EQ(population.users.size(), 2u);
  // Users come out ordered by id.
  EXPECT_EQ(population.users[0].user_id, 1);
  EXPECT_EQ(population.users[1].user_id, 3);
  EXPECT_EQ(population.users[1].sessions.size(), 2u);
}

TEST(TraceIoTest, FileRoundTrip) {
  PopulationConfig config;
  config.num_users = 5;
  config.horizon_s = 1.0 * kDay;
  const Population original = GeneratePopulation(config);
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  WriteTraceFile(original, path);
  const StatusOr<Population> loaded = LoadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->TotalSessions(), original.TotalSessions());
}

TEST(TraceIoTest, WriteReadWriteYieldsIdenticalBytes) {
  // Byte-level round trip: serializing a parsed trace reproduces the exact
  // original file, so traces can be archived, diffed, and digested.
  PopulationConfig config;
  config.num_users = 15;
  config.horizon_s = 2.0 * kDay;
  config.num_segments = 3;
  const Population original = GeneratePopulation(config);

  std::ostringstream first;
  WriteTrace(original, first);
  const Population loaded = Parse(first.str());
  std::ostringstream second;
  WriteTrace(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(TraceIoTest, TryParseAcceptsWellFormedTrace) {
  Population population;
  std::string error;
  EXPECT_TRUE(TryParseTrace(
      "user_id,app_id,start_time,duration_s\n"
      "0,1,1000,60\n",
      &population, &error))
      << error;
  EXPECT_EQ(population.users.size(), 1u);
}

TEST(TraceIoTest, TruncatedLineIsACleanError) {
  // The last row lost its duration field mid-write.
  Population population;
  std::string error;
  EXPECT_FALSE(TryParseTrace(
      "user_id,app_id,start_time,duration_s\n"
      "0,1,1000,60\n"
      "0,2,2000\n",
      &population, &error));
  EXPECT_NE(error.find("ragged"), std::string::npos) << error;
}

TEST(TraceIoTest, BadFieldCountIsACleanError) {
  Population population;
  std::string error;
  EXPECT_FALSE(TryParseTrace(
      "user_id,app_id,start_time,duration_s\n"
      "0,1,1000,60,999\n",
      &population, &error));
  EXPECT_NE(error.find("ragged"), std::string::npos) << error;
}

TEST(TraceIoTest, NonNumericFieldIsACleanError) {
  Population population;
  std::string error;
  EXPECT_FALSE(TryParseTrace(
      "user_id,app_id,start_time,duration_s\n"
      "0,banana,1000,60\n",
      &population, &error));
  EXPECT_NE(error.find("app_id"), std::string::npos) << error;
}

TEST(TraceIoTest, NegativeDurationIsACleanError) {
  Population population;
  std::string error;
  EXPECT_FALSE(TryParseTrace(
      "user_id,app_id,start_time,duration_s\n"
      "0,1,1000,-5\n",
      &population, &error));
  EXPECT_NE(error.find("duration"), std::string::npos) << error;
}

TEST(TraceIoTest, MissingRequiredColumnIsACleanError) {
  Population population;
  std::string error;
  EXPECT_FALSE(TryParseTrace(
      "user_id,app_id,start_time\n"
      "0,1,1000\n",
      &population, &error));
  EXPECT_NE(error.find("duration_s"), std::string::npos) << error;
}

TEST(TraceIoTest, MalformedHorizonCommentIsACleanError) {
  Population population;
  std::string error;
  EXPECT_FALSE(TryParseTrace(
      "# horizon_s=not_a_number\n"
      "user_id,app_id,start_time,duration_s\n"
      "0,1,1000,60\n",
      &population, &error));
  EXPECT_NE(error.find("horizon"), std::string::npos) << error;
}

TEST(TraceIoTest, FailedParseLeavesPopulationUntouched) {
  Population population;
  population.horizon_s = 123.0;
  std::string error;
  EXPECT_FALSE(TryParseTrace("user_id,app_id,start_time,duration_s\n0,1\n", &population,
                             &error));
  EXPECT_DOUBLE_EQ(population.horizon_s, 123.0);
}

TEST(TraceIoTest, MissingFileIsNotFound) {
  const StatusOr<Population> loaded = LoadTraceFile("/nonexistent/path/trace.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace pad
