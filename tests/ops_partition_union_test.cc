#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "ops/extras.h"
#include "ops/partition.h"
#include "ops/union_op.h"
#include "pointprocess/gof.h"
#include "pointprocess/simulate.h"

namespace craqr {
namespace ops {
namespace {

Tuple TupleAt(const geom::SpaceTimePoint& p) {
  Tuple tuple;
  tuple.point = p;
  return tuple;
}

/// Pushes one tuple as a one-row batch, so every arrival is its own push.
Status PushOne(Operator& op, const Tuple& tuple) {
  TupleBatch batch;
  batch.Append(tuple);
  return op.PushBatch(batch);
}

/// Pushes a point stream as one batch, in arrival order.
Status PushPoints(Operator& op,
                  const std::vector<geom::SpaceTimePoint>& points) {
  TupleBatch batch;
  for (const auto& p : points) {
    batch.Append(TupleAt(p));
  }
  return op.PushBatch(batch);
}

TEST(PartitionTest, ValidatesRegions) {
  EXPECT_FALSE(PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 1)}).ok());
  // Overlapping regions rejected.
  EXPECT_FALSE(PartitionOperator::Make(
                   "p", {geom::Rect(0, 0, 2, 2), geom::Rect(1, 1, 3, 3)})
                   .ok());
  EXPECT_FALSE(
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 1), geom::Rect()})
          .ok());
  EXPECT_TRUE(PartitionOperator::Make(
                  "p", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1)})
                  .ok());
}

TEST(PartitionTest, RoutesByRegion) {
  auto partition =
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 2), geom::Rect(1, 0, 2, 2)})
          .MoveValue();
  auto left = SinkOperator::Make("left").MoveValue();
  auto right = SinkOperator::Make("right").MoveValue();
  partition->AddOutput(left.get());
  partition->AddOutput(right.get());
  ASSERT_TRUE(PushOne(*partition, TupleAt({0.0, 0.5, 1.0})).ok());
  ASSERT_TRUE(PushOne(*partition, TupleAt({0.0, 1.5, 1.0})).ok());
  ASSERT_TRUE(PushOne(*partition, TupleAt({0.0, 0.2, 0.2})).ok());
  EXPECT_EQ(left->tuples().size(), 2u);
  EXPECT_EQ(right->tuples().size(), 1u);
  EXPECT_EQ(partition->unrouted(), 0u);
}

TEST(PartitionTest, CountsUnroutedTuples) {
  auto partition =
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1)})
          .MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  partition->AddOutput(sink.get());
  // Outside both regions.
  ASSERT_TRUE(PushOne(*partition, TupleAt({0.0, 5.0, 5.0})).ok());
  EXPECT_EQ(partition->unrouted(), 1u);
  // In region 1 but branch 1 not connected: counted, not an error.
  ASSERT_TRUE(PushOne(*partition, TupleAt({0.0, 1.5, 0.5})).ok());
  EXPECT_EQ(partition->unrouted(), 2u);
  EXPECT_EQ(sink->tuples().size(), 0u);
}

TEST(PartitionTest, PreservesRatePerRegion) {
  // Partitioning P(lambda, R) yields P(lambda, R_k) on each piece.
  const geom::Rect region(0, 0, 4, 2);
  const pp::SpaceTimeWindow w{0.0, 60.0, region};
  Rng rng(61);
  const auto points = pp::SimulateHomogeneous(&rng, 8.0, w);
  ASSERT_TRUE(points.ok());
  auto partition =
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 2),   // quarter
                                    geom::Rect(1, 0, 4, 2)})  // rest
          .MoveValue();
  auto a = SinkOperator::Make("a", 1 << 22).MoveValue();
  auto b = SinkOperator::Make("b", 1 << 22).MoveValue();
  partition->AddOutput(a.get());
  partition->AddOutput(b.get());
  ASSERT_TRUE(PushPoints(*partition, *points).ok());
  // Expected counts: 8 * area * 60.
  EXPECT_GT(PoissonTwoSidedPValue(8.0 * 2.0 * 60.0,
                                  static_cast<double>(a->tuples().size())),
            1e-6);
  EXPECT_GT(PoissonTwoSidedPValue(8.0 * 6.0 * 60.0,
                                  static_cast<double>(b->tuples().size())),
            1e-6);
  // Conservation.
  EXPECT_EQ(a->tuples().size() + b->tuples().size(), points->size());
}

TEST(PartitionTest, KWayRouting) {
  std::vector<geom::Rect> regions;
  for (int i = 0; i < 4; ++i) {
    regions.emplace_back(i, 0.0, i + 1.0, 1.0);
  }
  auto partition = PartitionOperator::Make("p", regions).MoveValue();
  std::vector<std::unique_ptr<SinkOperator>> sinks;
  for (int i = 0; i < 4; ++i) {
    sinks.push_back(SinkOperator::Make("s" + std::to_string(i)).MoveValue());
    partition->AddOutput(sinks.back().get());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(PushOne(*partition, TupleAt({0.0, i + 0.5, 0.5})).ok());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sinks[i]->tuples().size(), 1u) << i;
  }
}

TEST(UnionTest, ValidatesAdjacency) {
  // Two adjacent cells sharing a full side: OK.
  EXPECT_TRUE(UnionOperator::Make(
                  "u", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1)})
                  .ok());
  // Disjoint but not tiling a rectangle: rejected.
  EXPECT_EQ(UnionOperator::Make(
                "u", {geom::Rect(0, 0, 1, 1), geom::Rect(2, 0, 3, 1)})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Overlapping: rejected.
  EXPECT_FALSE(UnionOperator::Make(
                   "u", {geom::Rect(0, 0, 2, 1), geom::Rect(1, 0, 3, 1)})
                   .ok());
  // Fewer than two regions: rejected.
  EXPECT_FALSE(UnionOperator::Make("u", {geom::Rect(0, 0, 1, 1)}).ok());
  // L-shaped (diagonal gap): rejected.
  EXPECT_FALSE(UnionOperator::Make("u", {geom::Rect(0, 0, 1, 1),
                                         geom::Rect(1, 0, 2, 1),
                                         geom::Rect(0, 1, 1, 2)})
                   .ok());
}

TEST(UnionTest, OutputRegionIsBoundingRect) {
  auto u = UnionOperator::Make("u", {geom::Rect(0, 0, 1, 2),
                                     geom::Rect(1, 0, 3, 2)})
               .MoveValue();
  EXPECT_EQ(u->output_region(), geom::Rect(0, 0, 3, 2));
}

TEST(UnionTest, FourCellsTileASquare) {
  EXPECT_TRUE(UnionOperator::Make(
                  "u", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1),
                        geom::Rect(0, 1, 1, 2), geom::Rect(1, 1, 2, 2)})
                  .ok());
}

TEST(UnionTest, MergesStreamsAndPreservesRate) {
  // Two equal-rate processes on adjacent regions union to one process on
  // the combined region at the same rate.
  const geom::Rect left(0, 0, 2, 2);
  const geom::Rect right(2, 0, 4, 2);
  const double rate = 6.0;
  Rng rng_l(62);
  Rng rng_r(63);
  const auto pl =
      pp::SimulateHomogeneous(&rng_l, rate, pp::SpaceTimeWindow{0, 50, left});
  const auto pr =
      pp::SimulateHomogeneous(&rng_r, rate, pp::SpaceTimeWindow{0, 50, right});
  ASSERT_TRUE(pl.ok() && pr.ok());
  auto u = UnionOperator::Make("u", {left, right}).MoveValue();
  auto sink = SinkOperator::Make("s", 1 << 22).MoveValue();
  u->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*u, *pl).ok());
  ASSERT_TRUE(PushPoints(*u, *pr).ok());
  EXPECT_EQ(sink->tuples().size(), pl->size() + pr->size());
  EXPECT_EQ(u->out_of_region(), 0u);
  // Combined region volume = 8 km^2 * 50 min.
  EXPECT_GT(PoissonTwoSidedPValue(rate * 8.0 * 50.0,
                                  static_cast<double>(sink->tuples().size())),
            1e-6);
}

TEST(UnionTest, CountsOutOfRegionTuples) {
  auto u = UnionOperator::Make("u", {geom::Rect(0, 0, 1, 1),
                                     geom::Rect(1, 0, 2, 1)})
               .MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  u->AddOutput(sink.get());
  ASSERT_TRUE(PushOne(*u, TupleAt({0.0, 9.0, 9.0})).ok());
  EXPECT_EQ(u->out_of_region(), 1u);
  // Still forwarded (diagnostic, not a filter).
  EXPECT_EQ(sink->tuples().size(), 1u);
}

}  // namespace
}  // namespace ops
}  // namespace craqr
