#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"
#include "common/rng.h"
#include "ops/extras.h"
#include "ops/thin.h"
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

/// Pushes a point stream as one batch, in arrival order.
Status PushPoints(Operator& op,
                  const std::vector<geom::SpaceTimePoint>& points) {
  TupleBatch batch;
  for (const auto& p : points) {
    batch.Append(TupleAt(p));
  }
  return op.PushBatch(batch);
}

TEST(ThinTest, ValidatesRates) {
  EXPECT_FALSE(ThinOperator::Make("t", 0.0, 1.0, Rng(1)).ok());
  EXPECT_FALSE(ThinOperator::Make("t", 2.0, 0.0, Rng(1)).ok());
  EXPECT_FALSE(ThinOperator::Make("t", 2.0, 2.0, Rng(1)).ok());
  // The paper requires lambda2 strictly less than lambda1.
  EXPECT_FALSE(ThinOperator::Make("t", 2.0, 3.0, Rng(1)).ok());
  EXPECT_TRUE(ThinOperator::Make("t", 3.0, 2.0, Rng(1)).ok());
}

TEST(ThinTest, RetainProbability) {
  auto thin = ThinOperator::Make("t", 8.0, 2.0, Rng(1)).MoveValue();
  EXPECT_DOUBLE_EQ(thin->retain_probability(), 0.25);
  EXPECT_DOUBLE_EQ(thin->input_rate(), 8.0);
  EXPECT_DOUBLE_EQ(thin->output_rate(), 2.0);
  EXPECT_EQ(thin->kind(), OperatorKind::kThin);
}

TEST(ThinTest, UpdateRatesValidates) {
  auto thin = ThinOperator::Make("t", 8.0, 2.0, Rng(1)).MoveValue();
  EXPECT_TRUE(thin->UpdateRates(10.0, 5.0).ok());
  EXPECT_DOUBLE_EQ(thin->retain_probability(), 0.5);
  EXPECT_FALSE(thin->UpdateRates(5.0, 5.0).ok());
  // Failed update leaves the old rates intact.
  EXPECT_DOUBLE_EQ(thin->input_rate(), 10.0);
}

/// The paper's claim: thinning a Poisson process with p = lambda2/lambda1
/// yields a Poisson process with rate lambda2.
class ThinRateTest : public ::testing::TestWithParam<double> {};

TEST_P(ThinRateTest, OutputRateMatchesTarget) {
  const double ratio = GetParam();
  const double lambda1 = 20.0;
  const double lambda2 = ratio * lambda1;
  const pp::SpaceTimeWindow w{0.0, 50.0, geom::Rect(0, 0, 3, 3)};
  Rng source_rng(31);
  const auto input = pp::SimulateHomogeneous(&source_rng, lambda1, w);
  ASSERT_TRUE(input.ok());

  auto thin = ThinOperator::Make("t", lambda1, lambda2, Rng(32)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
  thin->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*thin, *input).ok());
  const double expected = lambda2 * w.Volume();
  EXPECT_GT(PoissonTwoSidedPValue(
                expected, static_cast<double>(sink->tuples().size())),
            1e-6)
      << "ratio=" << ratio << " retained=" << sink->tuples().size()
      << " expected=" << expected;
}

INSTANTIATE_TEST_SUITE_P(Ratios, ThinRateTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.95));

TEST(ThinTest, OutputRemainsHomogeneous) {
  const pp::SpaceTimeWindow w{0.0, 60.0, geom::Rect(0, 0, 4, 4)};
  Rng source_rng(33);
  const auto input = pp::SimulateHomogeneous(&source_rng, 15.0, w);
  ASSERT_TRUE(input.ok());
  auto thin = ThinOperator::Make("t", 15.0, 5.0, Rng(34)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
  thin->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*thin, *input).ok());
  std::vector<geom::SpaceTimePoint> retained;
  for (const auto& t : sink->tuples()) {
    retained.push_back(t.point);
  }
  const auto spatial = pp::TestSpatialHomogeneity(retained, w, 4, 4);
  ASSERT_TRUE(spatial.ok());
  EXPECT_GT(spatial->p_value, 1e-4);
  const auto temporal = pp::TestTemporalUniformity(retained, w);
  ASSERT_TRUE(temporal.ok());
  EXPECT_GT(temporal->p_value, 1e-4);
}

TEST(ThinTest, ThinningIsIndependentOfPosition) {
  // Retained fraction must be the same in every sub-region.
  const pp::SpaceTimeWindow w{0.0, 80.0, geom::Rect(0, 0, 2, 2)};
  Rng source_rng(35);
  const auto input = pp::SimulateHomogeneous(&source_rng, 25.0, w);
  ASSERT_TRUE(input.ok());
  auto thin = ThinOperator::Make("t", 25.0, 10.0, Rng(36)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
  thin->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*thin, *input).ok());
  std::size_t left_in = 0;
  std::size_t left_out = 0;
  for (const auto& p : *input) {
    left_in += p.x < 1.0 ? 1 : 0;
  }
  for (const auto& t : sink->tuples()) {
    left_out += t.point.x < 1.0 ? 1 : 0;
  }
  const double frac_left_in =
      static_cast<double>(left_in) / static_cast<double>(input->size());
  const double frac_left_out = static_cast<double>(left_out) /
                               static_cast<double>(sink->tuples().size());
  EXPECT_NEAR(frac_left_in, frac_left_out, 0.03);
}

TEST(ThinTest, ChainedThinsComposeRates) {
  // T(20->10) then T(10->2): end-to-end retention 0.1.
  const pp::SpaceTimeWindow w{0.0, 100.0, geom::Rect(0, 0, 3, 3)};
  Rng source_rng(37);
  const auto input = pp::SimulateHomogeneous(&source_rng, 20.0, w);
  ASSERT_TRUE(input.ok());
  auto t1 = ThinOperator::Make("t1", 20.0, 10.0, Rng(38)).MoveValue();
  auto t2 = ThinOperator::Make("t2", 10.0, 2.0, Rng(39)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
  t1->AddOutput(t2.get());
  t2->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*t1, *input).ok());
  const double expected = 2.0 * w.Volume();
  EXPECT_GT(PoissonTwoSidedPValue(
                expected, static_cast<double>(sink->tuples().size())),
            1e-6);
}

}  // namespace
}  // namespace ops
}  // namespace craqr
