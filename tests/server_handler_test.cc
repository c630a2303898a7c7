#include <gtest/gtest.h>

#include "common/rng.h"
#include "sensing/world.h"
#include "server/handler.h"

namespace craqr {
namespace server {
namespace {

const geom::Rect kRegion(0, 0, 6, 6);

struct TestRig {
  sensing::CrowdWorld world;
  BudgetManager budgets;
  geom::Grid grid;
  ops::AttributeId attribute = 0;

  static TestRig Make(std::size_t sensors, double base_logit = 50.0) {
    sensing::PopulationConfig pc;
    pc.region = kRegion;
    pc.num_sensors = sensors;
    pc.responsiveness_sigma = 0.0;
    Rng rng(99);
    auto population = sensing::SensorPopulation::Make(pc, &rng);
    EXPECT_TRUE(population.ok());
    auto world =
        sensing::CrowdWorld::Make(population.MoveValue(), rng.Fork())
            .MoveValue();
    sensing::TemperatureField::Params tp;
    tp.noise_sigma = 0.0;
    sensing::ResponseBehavior behavior;
    behavior.base_logit = base_logit;
    behavior.delay_mu = -3.0;
    behavior.delay_sigma = 0.1;
    const auto id = world.RegisterAttribute(
        "temp", false, sensing::TemperatureField::Make(tp).MoveValue(),
        behavior);
    EXPECT_TRUE(id.ok());

    BudgetConfig bc;
    bc.initial = 8.0;
    bc.delta = 2.0;
    bc.min = 1.0;
    bc.max = 64.0;
    auto budgets = BudgetManager::Make(bc).MoveValue();
    auto grid = geom::Grid::Make(kRegion, 9).MoveValue();
    return TestRig{std::move(world), std::move(budgets), grid, *id};
  }
};

TEST(HandlerTest, Validation) {
  TestRig rig = TestRig::Make(50);
  EXPECT_FALSE(
      RequestResponseHandler::Make(nullptr, &rig.budgets, rig.grid).ok());
  EXPECT_FALSE(
      RequestResponseHandler::Make(&rig.world, nullptr, rig.grid).ok());
  HandlerConfig bad;
  bad.dispatch_interval = 0.0;
  EXPECT_FALSE(
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid, bad)
          .ok());
}

TEST(HandlerTest, SubscriptionRefCounting) {
  TestRig rig = TestRig::Make(50);
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid)
          .MoveValue();
  const geom::CellIndex cell{1, 1};
  ASSERT_TRUE(handler.Subscribe(rig.attribute, cell).ok());
  ASSERT_TRUE(handler.Subscribe(rig.attribute, cell).ok());
  EXPECT_EQ(handler.NumSubscriptions(), 1u);  // shared
  ASSERT_TRUE(handler.Unsubscribe(rig.attribute, cell).ok());
  EXPECT_EQ(handler.NumSubscriptions(), 1u);  // one reference left
  ASSERT_TRUE(handler.Unsubscribe(rig.attribute, cell).ok());
  EXPECT_EQ(handler.NumSubscriptions(), 0u);
  EXPECT_EQ(handler.Unsubscribe(rig.attribute, cell).code(),
            StatusCode::kNotFound);
}

TEST(HandlerTest, SubscribeValidatesCell) {
  TestRig rig = TestRig::Make(10);
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid)
          .MoveValue();
  EXPECT_EQ(handler.Subscribe(rig.attribute, geom::CellIndex{9, 0}).code(),
            StatusCode::kOutOfRange);
}

TEST(HandlerTest, StepDeliversArrivedResponsesInTimeOrder) {
  TestRig rig = TestRig::Make(400);
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid)
          .MoveValue();
  ASSERT_TRUE(handler.Subscribe(rig.attribute, geom::CellIndex{0, 0}).ok());
  ASSERT_TRUE(handler.Subscribe(rig.attribute, geom::CellIndex{1, 1}).ok());

  std::vector<ops::Tuple> all;
  ops::TupleBatch batch;
  for (double now = 1.0; now <= 10.0; now += 1.0) {
    ASSERT_TRUE(handler.Step(now, &batch).ok());
    batch.ForEach([&all, now](const ops::Tuple& tuple) {
      EXPECT_LE(tuple.point.t, now);
      all.push_back(tuple);
    });
  }
  ASSERT_GT(all.size(), 50u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].point.t, all[i].point.t);
  }
  EXPECT_EQ(handler.tuples_delivered(), all.size());
  EXPECT_GT(handler.requests_sent(), 0u);
}

TEST(HandlerTest, BudgetControlsRequestVolume) {
  TestRig rig = TestRig::Make(400);
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid)
          .MoveValue();
  ASSERT_TRUE(handler.Subscribe(rig.attribute, geom::CellIndex{0, 0}).ok());
  ops::TupleBatch batch;
  ASSERT_TRUE(handler.Step(1.0, &batch).ok());
  // One subscription, two dispatch rounds (t=0-ish baseline + t=1), budget 8.
  const auto after_one = handler.requests_sent();
  EXPECT_GT(after_one, 0u);
  // Raise the budget: next rounds send more.
  for (int i = 0; i < 10; ++i) {
    rig.budgets.ReportViolation(BudgetKey{rig.attribute, {0, 0}}, 50.0);
  }
  ASSERT_TRUE(handler.Step(2.0, &batch).ok());
  const auto delta = handler.requests_sent() - after_one;
  EXPECT_GT(delta, 8u);
}

TEST(HandlerTest, PendingResponsesAgeOut) {
  // Slow humans: responses arrive minutes later.
  TestRig rig = TestRig::Make(300);
  sensing::ResponseBehavior slow;
  slow.base_logit = 50.0;
  slow.delay_mu = 1.5;  // median ~4.5 min
  slow.delay_sigma = 0.2;
  const auto rain_id = rig.world.RegisterAttribute(
      "rain", true,
      sensing::RainField::Make({}, 0.0).MoveValue(), slow);
  ASSERT_TRUE(rain_id.ok());
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid)
          .MoveValue();
  ASSERT_TRUE(handler.Subscribe(*rain_id, geom::CellIndex{1, 1}).ok());
  ops::TupleBatch first;
  ASSERT_TRUE(handler.Step(1.0, &first).ok());
  EXPECT_GT(handler.pending_responses(), 0u);
  // Stop asking; by t=60 every in-flight response has arrived and drained.
  ASSERT_TRUE(handler.Unsubscribe(*rain_id, geom::CellIndex{1, 1}).ok());
  ops::TupleBatch later;
  ASSERT_TRUE(handler.Step(60.0, &later).ok());
  EXPECT_EQ(handler.pending_responses(), 0u);
  EXPECT_GT(later.size(), 0u);
}

TEST(HandlerTest, IncentiveAccessors) {
  TestRig rig = TestRig::Make(10);
  HandlerConfig config;
  config.default_incentive = 0.7;
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid, config)
          .MoveValue();
  EXPECT_DOUBLE_EQ(handler.GetIncentive(rig.attribute), 0.7);
  handler.SetIncentive(rig.attribute, 2.5);
  EXPECT_DOUBLE_EQ(handler.GetIncentive(rig.attribute), 2.5);
}

TEST(HandlerTest, NoSubscriptionsNoRequests) {
  TestRig rig = TestRig::Make(100);
  auto handler =
      RequestResponseHandler::Make(&rig.world, &rig.budgets, rig.grid)
          .MoveValue();
  ops::TupleBatch batch;
  ASSERT_TRUE(handler.Step(5.0, &batch).ok());
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(handler.requests_sent(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace craqr
