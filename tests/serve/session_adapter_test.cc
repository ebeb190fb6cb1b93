// DecisionEngine contract: request validation maps to wire statuses, bundle
// sizes respect the confident-capacity budget, and sessions are independent —
// interleaving requests across sessions can never change any answer.
#include "src/serve/session_adapter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/units.h"

namespace pad {
namespace {

class SessionAdapterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServeConfig config = DefaultServeConfig(24);
    StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static WireRequest Valid(uint64_t client, uint32_t slots = 2) {
    return WireRequest{client, slots, 3.0 * 3600.0};
  }

  static DecisionEngine* engine_;
};

DecisionEngine* SessionAdapterTest::engine_ = nullptr;

TEST_F(SessionAdapterTest, SnapshotCoversThePopulation) {
  EXPECT_EQ(engine_->num_clients(), 24);
  // QuickConfig demand (>= 50 arrivals/day over a 7-day warmup) guarantees a
  // non-empty book at the snapshot.
  EXPECT_GT(engine_->active_campaigns(), 0);
}

TEST_F(SessionAdapterTest, UnknownClientIsRejected) {
  DecisionEngine::Session session = engine_->NewSession();
  for (uint64_t client : {static_cast<uint64_t>(engine_->num_clients()),
                          static_cast<uint64_t>(engine_->num_clients()) + 100,
                          std::numeric_limits<uint64_t>::max()}) {
    const WireResponse response = engine_->Decide(session, Valid(client));
    EXPECT_EQ(response.status, ResponseStatus::kUnknownClient);
    EXPECT_TRUE(response.ads.empty());
  }
}

TEST_F(SessionAdapterTest, MalformedRequestFieldsAreBadRequests) {
  DecisionEngine::Session session = engine_->NewSession();
  std::vector<WireRequest> bad = {
      {0, 0, 3600.0},                                      // Zero slots.
      {0, engine_->config().max_bundle_ads + 1, 3600.0},   // Bundle too large.
      {0, 2, 0.0},                                         // No time to display.
      {0, 2, -5.0},                                        // Negative deadline.
      {0, 2, std::numeric_limits<double>::quiet_NaN()},    // NaN deadline.
      {0, 2, std::numeric_limits<double>::infinity()},     // Infinite deadline.
      {0, 2, 2.0 * kWeek},                                 // Beyond the sale horizon.
  };
  for (const WireRequest& request : bad) {
    const WireResponse response = engine_->Decide(session, request);
    EXPECT_EQ(response.status, ResponseStatus::kBadRequest)
        << "slots=" << request.slot_count << " deadline=" << request.deadline_s;
    EXPECT_TRUE(response.ads.empty());
  }
  // Rejections never consume session budget: a valid decision afterwards is
  // identical to one on a fresh session.
  const WireResponse after = engine_->Decide(session, Valid(0));
  DecisionEngine::Session fresh = engine_->NewSession();
  EXPECT_EQ(after, engine_->Decide(fresh, Valid(0)));
}

TEST_F(SessionAdapterTest, ResponseShapeMatchesDecision) {
  for (int64_t client = 0; client < engine_->num_clients(); ++client) {
    DecisionEngine::Session session = engine_->NewSession();
    for (int r = 0; r < 50; ++r) {
      const WireRequest request = Valid(static_cast<uint64_t>(client), 3);
      const WireResponse response = engine_->Decide(session, request);
      ASSERT_EQ(response.status, ResponseStatus::kOk);
      switch (response.decision) {
        case DecisionKind::kBundle:
          ASSERT_GE(response.ads.size(), 1u);
          ASSERT_LE(response.ads.size(), request.slot_count);
          break;
        case DecisionKind::kRealtime:
          ASSERT_EQ(response.ads.size(), 1u);
          break;
        case DecisionKind::kNone:
          ASSERT_TRUE(response.ads.empty());
          break;
      }
      for (const WireAd& ad : response.ads) {
        // Every sold impression clears at or above the exchange reserve.
        ASSERT_GE(ad.price_usd, engine_->config().pad.exchange.reserve_price);
      }
    }
  }
}

TEST_F(SessionAdapterTest, BundlingStopsOnceCapacityIsCommitted) {
  // With a fixed deadline, the confident capacity is fixed, so committed
  // bundle ads only grow: once a request is not answered with a bundle, no
  // later identical request may be (spare <= 0 or demand gone, both sticky).
  for (int64_t client = 0; client < engine_->num_clients(); ++client) {
    DecisionEngine::Session session = engine_->NewSession();
    bool bundling_over = false;
    int64_t bundled = 0;
    for (int r = 0; r < 200; ++r) {
      const WireResponse response =
          engine_->Decide(session, Valid(static_cast<uint64_t>(client), 4));
      if (response.decision == DecisionKind::kBundle) {
        ASSERT_FALSE(bundling_over) << "client " << client << " resumed bundling at " << r;
        bundled += static_cast<int64_t>(response.ads.size());
      } else {
        bundling_over = true;
      }
    }
    EXPECT_EQ(session.queued, bundled);
  }
}

TEST_F(SessionAdapterTest, TinyDeadlineNeverBundles) {
  // One second of confident slot production at max_slot_rate_per_s (1/15 s)
  // is zero for every client, so the bundle path cannot open.
  DecisionEngine::Session session = engine_->NewSession();
  for (int64_t client = 0; client < engine_->num_clients(); ++client) {
    const WireResponse response =
        engine_->Decide(session, WireRequest{static_cast<uint64_t>(client), 4, 1.0});
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_NE(response.decision, DecisionKind::kBundle);
  }
}

TEST_F(SessionAdapterTest, DecideBatchIsReproducible) {
  std::vector<WireRequest> requests;
  for (int r = 0; r < 64; ++r) {
    requests.push_back(Valid(static_cast<uint64_t>(r % engine_->num_clients()),
                             1 + static_cast<uint32_t>(r % 4)));
  }
  const std::vector<WireResponse> first = engine_->DecideBatch(requests);
  const std::vector<WireResponse> second = engine_->DecideBatch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "request " << i;
    EXPECT_EQ(EncodeResponsePayload(first[i]), EncodeResponsePayload(second[i]));
  }
}

TEST_F(SessionAdapterTest, TwoEnginesFromOneConfigAgree) {
  ServeConfig config = DefaultServeConfig(16);
  StatusOr<std::unique_ptr<DecisionEngine>> a = DecisionEngine::Create(config);
  StatusOr<std::unique_ptr<DecisionEngine>> b = DecisionEngine::Create(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<WireRequest> requests;
  for (int r = 0; r < 48; ++r) {
    requests.push_back(Valid(static_cast<uint64_t>(r % 16), 1 + static_cast<uint32_t>(r % 3)));
  }
  EXPECT_EQ((*a)->DecideBatch(requests), (*b)->DecideBatch(requests));
}

TEST_F(SessionAdapterTest, SessionsAreIndependentUnderInterleaving) {
  // Two sessions with distinct request streams, decided in three different
  // interleavings, must each reproduce their dedicated batch replay exactly.
  std::vector<WireRequest> stream_a, stream_b;
  for (int r = 0; r < 40; ++r) {
    stream_a.push_back(Valid(static_cast<uint64_t>(r % 5), 1 + static_cast<uint32_t>(r % 4)));
    stream_b.push_back(Valid(static_cast<uint64_t>(5 + (r % 7)), 1 + static_cast<uint32_t>(r % 3)));
  }
  const std::vector<WireResponse> expect_a = engine_->DecideBatch(stream_a);
  const std::vector<WireResponse> expect_b = engine_->DecideBatch(stream_b);

  const auto run_interleaved = [&](int pattern) {
    DecisionEngine::Session session_a = engine_->NewSession();
    DecisionEngine::Session session_b = engine_->NewSession();
    std::vector<WireResponse> got_a, got_b;
    size_t ia = 0, ib = 0;
    int step = 0;
    while (ia < stream_a.size() || ib < stream_b.size()) {
      bool pick_a;
      switch (pattern) {
        case 0:  pick_a = (step % 2 == 0); break;          // Strict alternation.
        case 1:  pick_a = (step % 5 < 4); break;           // Bursty A.
        default: pick_a = (step * 7 % 13 < 6); break;      // Irregular.
      }
      if (pick_a && ia >= stream_a.size()) {
        pick_a = false;
      }
      if (!pick_a && ib >= stream_b.size()) {
        pick_a = true;
      }
      if (pick_a) {
        got_a.push_back(engine_->Decide(session_a, stream_a[ia++]));
      } else {
        got_b.push_back(engine_->Decide(session_b, stream_b[ib++]));
      }
      ++step;
    }
    EXPECT_EQ(got_a, expect_a) << "pattern " << pattern;
    EXPECT_EQ(got_b, expect_b) << "pattern " << pattern;
  };
  for (int pattern = 0; pattern < 3; ++pattern) {
    run_interleaved(pattern);
  }
}

TEST(ServeConfigTest, CreateRejectsBadConfigs) {
  ServeConfig negative_users = DefaultServeConfig(-3);
  EXPECT_FALSE(DecisionEngine::Create(negative_users).ok());

  ServeConfig no_bundles = DefaultServeConfig(8);
  no_bundles.max_bundle_ads = 0;
  EXPECT_FALSE(DecisionEngine::Create(no_bundles).ok());

  ServeConfig late_snapshot = DefaultServeConfig(8);
  late_snapshot.snapshot_time_s = late_snapshot.pad.population.horizon_s + 1.0;
  EXPECT_FALSE(DecisionEngine::Create(late_snapshot).ok());
}

TEST(ServeConfigTest, SnapshotTimeDefaultsToWarmup) {
  ServeConfig config = DefaultServeConfig(8);
  EXPECT_DOUBLE_EQ(config.EffectiveSnapshotTime(), config.pad.WarmupS());
  config.snapshot_time_s = 123.0;
  EXPECT_DOUBLE_EQ(config.EffectiveSnapshotTime(), 123.0);
}

}  // namespace
}  // namespace pad
