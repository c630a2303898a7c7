#include <gtest/gtest.h>

#include "ops/extras.h"

namespace craqr {
namespace ops {
namespace {

Tuple TupleAt(double t, double x, double y, double value = 0.0) {
  Tuple tuple;
  tuple.point = geom::SpaceTimePoint{t, x, y};
  tuple.value = PayloadRef::Double(value);
  return tuple;
}

/// Pushes one tuple as a one-row batch, so every arrival is its own push.
Status PushOne(Operator& op, const Tuple& tuple) {
  TupleBatch batch;
  batch.Append(tuple);
  return op.PushBatch(batch);
}

TEST(SuperposeTest, MergesMultipleUpstreams) {
  auto superpose = SuperposeOperator::Make("s").MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  superpose->AddOutput(sink.get());
  // Two upstream operators both push into the same superpose.
  auto up1 = PassThroughOperator::Make("u1").MoveValue();
  auto up2 = PassThroughOperator::Make("u2").MoveValue();
  up1->AddOutput(superpose.get());
  up2->AddOutput(superpose.get());
  ASSERT_TRUE(PushOne(*up1, TupleAt(1, 0, 0)).ok());
  ASSERT_TRUE(PushOne(*up2, TupleAt(2, 0, 0)).ok());
  EXPECT_EQ(sink->tuples().size(), 2u);
  EXPECT_EQ(superpose->kind(), OperatorKind::kSuperpose);
}

TEST(FilterTest, RequiresPredicate) {
  EXPECT_FALSE(FilterOperator::Make("f", nullptr).ok());
}

TEST(FilterTest, DropsNonMatchingTuples) {
  auto filter = FilterOperator::Make("f", [](const Tuple& t) {
                  return t.value.AsDouble() > 10.0;
                }).MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  filter->AddOutput(sink.get());
  ASSERT_TRUE(PushOne(*filter, TupleAt(0, 0, 0, 5.0)).ok());
  ASSERT_TRUE(PushOne(*filter, TupleAt(1, 0, 0, 15.0)).ok());
  ASSERT_TRUE(PushOne(*filter, TupleAt(2, 0, 0, 25.0)).ok());
  ASSERT_EQ(sink->tuples().size(), 2u);
  EXPECT_EQ(filter->stats().tuples_in, 3u);
  EXPECT_EQ(filter->stats().tuples_out, 2u);
}

TEST(MapTest, RequiresTransform) {
  EXPECT_FALSE(MapOperator::Make("m", nullptr).ok());
}

TEST(MapTest, TransformsValues) {
  auto map = MapOperator::Make("m", [](const Tuple& t) {
               Tuple out = t;
               out.value = PayloadRef::Double(t.value.AsDouble() * 2.0);
               return out;
             }).MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  map->AddOutput(sink.get());
  ASSERT_TRUE(PushOne(*map, TupleAt(0, 0, 0, 21.0)).ok());
  ASSERT_EQ(sink->tuples().size(), 1u);
  EXPECT_DOUBLE_EQ(sink->tuples()[0].value.AsDouble(), 42.0);
}

TEST(RateMonitorTest, ValidatesParameters) {
  EXPECT_FALSE(RateMonitorOperator::Make("m", 0.0, 1.0).ok());
  EXPECT_FALSE(RateMonitorOperator::Make("m", 1.0, 0.0).ok());
  EXPECT_FALSE(RateMonitorOperator::Make("m", -1.0, 1.0).ok());
}

TEST(RateMonitorTest, MeasuresWindowedRate) {
  // 2-minute windows over a 4 km^2 stream: 8 tuples per window = 1 /km2/min.
  auto monitor = RateMonitorOperator::Make("m", 2.0, 4.0).MoveValue();
  for (int window = 0; window < 5; ++window) {
    for (int i = 0; i < 8; ++i) {
      const double t = window * 2.0 + i * 0.25;
      ASSERT_TRUE(PushOne(*monitor, TupleAt(t, 0, 0)).ok());
    }
  }
  monitor->CloseCurrentWindow();
  EXPECT_EQ(monitor->window_rates().count(), 5u);
  EXPECT_NEAR(monitor->MeanRate(), 1.0, 1e-9);
}

TEST(RateMonitorTest, ForwardsTuplesUnchanged) {
  auto monitor = RateMonitorOperator::Make("m", 1.0, 1.0).MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  monitor->AddOutput(sink.get());
  ASSERT_TRUE(PushOne(*monitor, TupleAt(0.5, 1, 2, 3.0)).ok());
  ASSERT_EQ(sink->tuples().size(), 1u);
  EXPECT_DOUBLE_EQ(sink->tuples()[0].point.x, 1.0);
}

TEST(RateMonitorTest, HandlesQuietGaps) {
  auto monitor = RateMonitorOperator::Make("m", 1.0, 1.0).MoveValue();
  ASSERT_TRUE(PushOne(*monitor, TupleAt(0.5, 0, 0)).ok());
  // Long silence: intermediate empty windows are closed at zero count.
  ASSERT_TRUE(PushOne(*monitor, TupleAt(5.5, 0, 0)).ok());
  monitor->CloseCurrentWindow();
  EXPECT_GE(monitor->window_rates().count(), 5u);
  EXPECT_DOUBLE_EQ(monitor->window_rates().Min(), 0.0);

  // Batch-boundary flushes never close event-time windows.
  auto monitor2 = RateMonitorOperator::Make("m2", 10.0, 1.0).MoveValue();
  ASSERT_TRUE(PushOne(*monitor2, TupleAt(0.5, 0, 0)).ok());
  ASSERT_TRUE(monitor2->Flush().ok());
  ASSERT_TRUE(monitor2->Flush().ok());
  EXPECT_EQ(monitor2->window_rates().count(), 0u);
}

TEST(SinkTest, ValidatesCapacity) {
  EXPECT_FALSE(SinkOperator::Make("s", 0).ok());
}

TEST(SinkTest, CallbackSeesEveryTuple) {
  std::size_t count = 0;
  auto sink = SinkOperator::MakeBatched("s", [&count](const TupleBatch& batch) {
                count += batch.size();
              }).MoveValue();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PushOne(*sink, TupleAt(i, 0, 0)).ok());
  }
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(sink->total_received(), 10u);
  // A delivery-only sink forwards; it retains nothing.
  EXPECT_TRUE(sink->tuples().empty());
}

TEST(SinkTest, EvictsOldestWhenFull) {
  auto sink = SinkOperator::Make("s", 8).MoveValue();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(PushOne(*sink, TupleAt(i, 0, 0)).ok());
  }
  EXPECT_LE(sink->tuples().size(), 8u);
  EXPECT_EQ(sink->total_received(), 40u);
  // The newest tuple is retained.
  EXPECT_DOUBLE_EQ(sink->tuples().back().point.t, 39.0);
}

TEST(SinkTest, ClearKeepsCounters) {
  auto sink = SinkOperator::Make("s").MoveValue();
  ASSERT_TRUE(PushOne(*sink, TupleAt(0, 0, 0)).ok());
  sink->Clear();
  EXPECT_TRUE(sink->tuples().empty());
  EXPECT_EQ(sink->total_received(), 1u);
}

TEST(PassThroughTest, ForwardsEverything) {
  auto pass = PassThroughOperator::Make("id").MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  pass->AddOutput(sink.get());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(PushOne(*pass, TupleAt(i, 0, 0)).ok());
  }
  EXPECT_EQ(sink->tuples().size(), 7u);
  EXPECT_EQ(pass->kind(), OperatorKind::kPassThrough);
}

}  // namespace
}  // namespace ops
}  // namespace craqr
