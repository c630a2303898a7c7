#include <gtest/gtest.h>

#include "ops/extras.h"
#include "ops/operator.h"
#include "ops/pipeline.h"
#include "ops/tuple.h"

namespace craqr {
namespace ops {
namespace {

Tuple MakeTuple(double t, double x, double y, AttributeId attribute = 0) {
  Tuple tuple;
  tuple.point = geom::SpaceTimePoint{t, x, y};
  tuple.attribute = attribute;
  return tuple;
}

/// Pushes one tuple as a one-row batch, so every arrival is its own push.
Status PushOne(Operator& op, const Tuple& tuple) {
  TupleBatch batch;
  batch.Append(tuple);
  return op.PushBatch(batch);
}

TEST(OperatorTest, KindLabels) {
  EXPECT_STREQ(OperatorKindLabel(OperatorKind::kFlatten), "F");
  EXPECT_STREQ(OperatorKindLabel(OperatorKind::kThin), "T");
  EXPECT_STREQ(OperatorKindLabel(OperatorKind::kPartition), "P");
  EXPECT_STREQ(OperatorKindLabel(OperatorKind::kUnion), "U");
}

TEST(OperatorTest, AddAndRemoveOutputs) {
  auto a = PassThroughOperator::Make("a").MoveValue();
  auto b = PassThroughOperator::Make("b").MoveValue();
  auto c = PassThroughOperator::Make("c").MoveValue();
  EXPECT_EQ(a->AddOutput(b.get()), 0u);
  EXPECT_EQ(a->AddOutput(c.get()), 1u);
  EXPECT_TRUE(a->IsBranchingPoint());
  EXPECT_TRUE(a->RemoveOutput(b.get()));
  EXPECT_FALSE(a->RemoveOutput(b.get()));
  ASSERT_EQ(a->outputs().size(), 1u);
  EXPECT_EQ(a->outputs()[0], c.get());
  EXPECT_FALSE(a->IsBranchingPoint());
}

TEST(OperatorTest, EmitBroadcastsToAllOutputs) {
  auto src = PassThroughOperator::Make("src").MoveValue();
  auto sink1 = SinkOperator::Make("s1").MoveValue();
  auto sink2 = SinkOperator::Make("s2").MoveValue();
  src->AddOutput(sink1.get());
  src->AddOutput(sink2.get());
  ASSERT_TRUE(PushOne(*src, MakeTuple(1.0, 0.0, 0.0)).ok());
  EXPECT_EQ(sink1->tuples().size(), 1u);
  EXPECT_EQ(sink2->tuples().size(), 1u);
  EXPECT_EQ(src->stats().tuples_in, 1u);
  EXPECT_EQ(src->stats().tuples_out, 1u);
}

TEST(OperatorTest, StatsResetClearsCounters) {
  auto src = PassThroughOperator::Make("src").MoveValue();
  ASSERT_TRUE(PushOne(*src, MakeTuple(1.0, 0.0, 0.0)).ok());
  EXPECT_EQ(src->stats().tuples_in, 1u);
  src->ResetStats();
  EXPECT_EQ(src->stats().tuples_in, 0u);
  EXPECT_EQ(src->stats().tuples_out, 0u);
}

TEST(TupleTest, AttributeValueToString) {
  EXPECT_EQ(AttributeValueToString(AttributeValue{}), "null");
  EXPECT_EQ(AttributeValueToString(AttributeValue{true}), "true");
  EXPECT_EQ(AttributeValueToString(AttributeValue{false}), "false");
  EXPECT_EQ(AttributeValueToString(AttributeValue{std::int64_t{42}}), "42");
  EXPECT_EQ(AttributeValueToString(AttributeValue{std::string("wet")}),
            "\"wet\"");
}

TEST(PipelineTest, OwnsOperatorsAndCountsEvaluations) {
  Pipeline pipeline;
  auto* a = pipeline.Add(PassThroughOperator::Make("a").MoveValue());
  auto* b = pipeline.Add(SinkOperator::Make("b").MoveValue());
  Pipeline::Connect(a, b);
  EXPECT_EQ(pipeline.size(), 2u);
  ASSERT_TRUE(PushOne(*a, MakeTuple(0.0, 0.0, 0.0)).ok());
  ASSERT_TRUE(PushOne(*a, MakeTuple(1.0, 0.0, 0.0)).ok());
  // a sees 2, b sees 2 -> 4 evaluations.
  EXPECT_EQ(pipeline.TotalOperatorEvaluations(), 4u);
}

TEST(PipelineTest, RemoveDestroysOwnedOperator) {
  Pipeline pipeline;
  auto* a = pipeline.Add(PassThroughOperator::Make("a").MoveValue());
  EXPECT_TRUE(pipeline.Remove(a));
  EXPECT_EQ(pipeline.size(), 0u);
  auto other = PassThroughOperator::Make("other").MoveValue();
  EXPECT_FALSE(pipeline.Remove(other.get()));
}

TEST(PipelineTest, ToDotListsOperatorsAndEdges) {
  Pipeline pipeline;
  auto* a = pipeline.Add(PassThroughOperator::Make("alpha").MoveValue());
  auto* b = pipeline.Add(SinkOperator::Make("omega").MoveValue());
  Pipeline::Connect(a, b);
  const std::string dot = pipeline.ToDot();
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("omega"), std::string::npos);
  EXPECT_NE(dot.find("\"alpha\" -> \"omega\""), std::string::npos);
}

TEST(PipelineTest, FlushAllReachesEveryOperator) {
  // A buffering operator (sink behind a pass-through) must see its tuples
  // after FlushAll; use a monitor to verify Flush is invoked but windows
  // stay open (event-time semantics).
  Pipeline pipeline;
  auto* monitor = pipeline.Add(
      RateMonitorOperator::Make("mon", 1.0, 1.0).MoveValue());
  ASSERT_TRUE(PushOne(*monitor, MakeTuple(0.5, 0.0, 0.0)).ok());
  ASSERT_TRUE(pipeline.FlushAll().ok());
  EXPECT_EQ(monitor->window_rates().count(), 0u);
  monitor->CloseCurrentWindow();
  EXPECT_EQ(monitor->window_rates().count(), 1u);
}

}  // namespace
}  // namespace ops
}  // namespace craqr
