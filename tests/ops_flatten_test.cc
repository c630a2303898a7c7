#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ops/extras.h"
#include "ops/flatten.h"
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

FlattenConfig BaseConfig(const geom::Rect& region, double target) {
  FlattenConfig config;
  config.region = region;
  config.target_rate = target;
  config.target_mode = FlattenTargetMode::kRatePerVolume;
  config.mode = FlattenMode::kBatch;
  config.batch_size = 256;
  return config;
}

TEST(FlattenTest, ValidatesConfig) {
  FlattenConfig config = BaseConfig(geom::Rect(0, 0, 1, 1), 1.0);
  config.region = geom::Rect();
  EXPECT_FALSE(FlattenOperator::Make("f", config, Rng(1)).ok());

  config = BaseConfig(geom::Rect(0, 0, 1, 1), 0.0);
  EXPECT_FALSE(FlattenOperator::Make("f", config, Rng(1)).ok());

  config = BaseConfig(geom::Rect(0, 0, 1, 1), 1.0);
  config.batch_size = 1;
  EXPECT_FALSE(FlattenOperator::Make("f", config, Rng(1)).ok());

  config = BaseConfig(geom::Rect(0, 0, 1, 1), 1.0);
  config.mode = FlattenMode::kOnline;
  config.target_mode = FlattenTargetMode::kCountPerBatch;
  EXPECT_FALSE(FlattenOperator::Make("f", config, Rng(1)).ok());
}

TEST(FlattenTest, EqThreeRetainedCountMatchesTarget) {
  // With target mode kCountPerBatch, Eq. (3)'s retaining probabilities sum
  // to lambda-bar: the expected retained count per batch is the target.
  const geom::Rect region(0, 0, 4, 4);
  const pp::SpaceTimeWindow w{0.0, 30.0, region};
  const auto model = pp::LinearIntensity::Make({1.0, 0.0, 1.0, 0.5});
  ASSERT_TRUE(model.ok());

  FlattenConfig config = BaseConfig(region, 64.0);
  config.target_mode = FlattenTargetMode::kCountPerBatch;
  config.batch_size = 512;

  Rng source_rng(41);
  std::size_t total_retained = 0;
  std::size_t batches = 0;
  for (int rep = 0; rep < 30; ++rep) {
    const auto points = pp::SimulateInhomogeneous(&source_rng, **model, w);
    ASSERT_TRUE(points.ok());
    if (points->size() < config.batch_size) {
      continue;
    }
    auto flatten = FlattenOperator::Make(
                       "f", config, Rng(100 + static_cast<std::uint64_t>(rep)))
                       .MoveValue();
    auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
    flatten->AddOutput(sink.get());
    // Feed exactly one batch.
    for (std::size_t i = 0; i < config.batch_size; ++i) {
      ASSERT_TRUE(PushOne(*flatten, TupleAt((*points)[i])).ok());
    }
    total_retained += sink->tuples().size();
    ++batches;
  }
  ASSERT_GT(batches, 20u);
  const double mean_retained =
      static_cast<double>(total_retained) / static_cast<double>(batches);
  // Standard error ~ sqrt(64/batches) ~ 1.5; allow 5 sigma.
  EXPECT_NEAR(mean_retained, 64.0, 7.5);
}

TEST(FlattenTest, OutputIsApproximatelyHomogeneous) {
  // The headline claim: a strongly skewed inhomogeneous MDPP comes out
  // approximately homogeneous.
  const geom::Rect region(0, 0, 4, 4);
  const pp::SpaceTimeWindow w{0.0, 120.0, region};
  const auto model = pp::LinearIntensity::Make({0.5, 0.0, 2.0, 1.0});
  ASSERT_TRUE(model.ok());
  Rng source_rng(42);
  const auto points = pp::SimulateInhomogeneous(&source_rng, **model, w);
  ASSERT_TRUE(points.ok());

  // Input must be visibly inhomogeneous for the test to mean anything.
  const auto before = pp::TestSpatialHomogeneity(*points, w, 4, 4);
  ASSERT_TRUE(before.ok());
  ASSERT_LT(before->p_value, 1e-6);

  FlattenConfig config = BaseConfig(region, 1.0);  // well under the minimum
  auto flatten = FlattenOperator::Make("f", config, Rng(43)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
  flatten->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*flatten, *points).ok());
  ASSERT_TRUE(flatten->Flush().ok());

  std::vector<geom::SpaceTimePoint> retained;
  for (const auto& t : sink->tuples()) {
    retained.push_back(t.point);
  }
  ASSERT_GT(retained.size(), 100u);
  const auto after = pp::TestSpatialHomogeneity(retained, w, 4, 4);
  ASSERT_TRUE(after.ok());
  // Flattening must improve homogeneity dramatically.
  EXPECT_GT(after->p_value, 1e-3);
  EXPECT_LT(after->count_cv, before->count_cv);
}

TEST(FlattenTest, ReportsViolationsWhenTargetTooHigh) {
  const geom::Rect region(0, 0, 2, 2);
  const pp::SpaceTimeWindow w{0.0, 30.0, region};
  Rng source_rng(44);
  const auto points = pp::SimulateHomogeneous(&source_rng, 2.0, w);
  ASSERT_TRUE(points.ok());

  // Ask for far more than the stream carries.
  FlattenConfig config = BaseConfig(region, 50.0);
  auto flatten = FlattenOperator::Make("f", config, Rng(45)).MoveValue();
  int callbacks = 0;
  flatten->SetReportCallback([&callbacks](const FlattenBatchReport& report) {
    ++callbacks;
    EXPECT_GT(report.violation_percent, 50.0);
  });
  ASSERT_TRUE(PushPoints(*flatten, *points).ok());
  ASSERT_TRUE(flatten->Flush().ok());
  EXPECT_GT(callbacks, 0);
  EXPECT_GT(flatten->last_violation_percent(), 50.0);
  EXPECT_GT(flatten->violation_history().count(), 0u);
}

TEST(FlattenTest, NoViolationsWhenTargetLow) {
  const geom::Rect region(0, 0, 2, 2);
  const pp::SpaceTimeWindow w{0.0, 60.0, region};
  Rng source_rng(46);
  const auto points = pp::SimulateHomogeneous(&source_rng, 20.0, w);
  ASSERT_TRUE(points.ok());
  FlattenConfig config = BaseConfig(region, 0.5);
  auto flatten = FlattenOperator::Make("f", config, Rng(47)).MoveValue();
  ASSERT_TRUE(PushPoints(*flatten, *points).ok());
  ASSERT_TRUE(flatten->Flush().ok());
  EXPECT_LT(flatten->last_violation_percent(), 5.0);
}

TEST(FlattenTest, DiscardedTuplesGoToSideOutput) {
  const geom::Rect region(0, 0, 2, 2);
  const pp::SpaceTimeWindow w{0.0, 40.0, region};
  Rng source_rng(48);
  const auto points = pp::SimulateHomogeneous(&source_rng, 10.0, w);
  ASSERT_TRUE(points.ok());
  FlattenConfig config = BaseConfig(region, 1.0);
  auto flatten = FlattenOperator::Make("f", config, Rng(49)).MoveValue();
  auto kept = SinkOperator::Make("kept", 1 << 22).MoveValue();
  auto discarded = SinkOperator::Make("discarded", 1 << 22).MoveValue();
  flatten->AddOutput(kept.get());
  flatten->SetDiscardedOutput(discarded.get());
  ASSERT_TRUE(PushPoints(*flatten, *points).ok());
  ASSERT_TRUE(flatten->Flush().ok());
  // Conservation: kept + discarded = input.
  EXPECT_EQ(kept->tuples().size() + discarded->tuples().size(),
            points->size());
  EXPECT_GT(discarded->tuples().size(), 0u);
}

TEST(FlattenTest, FlushProcessesPartialBatch) {
  const geom::Rect region(0, 0, 1, 1);
  FlattenConfig config = BaseConfig(region, 100.0);
  config.batch_size = 1000;
  auto flatten = FlattenOperator::Make("f", config, Rng(50)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 20).MoveValue();
  flatten->AddOutput(sink.get());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        PushOne(*flatten, TupleAt({0.1 * i, 0.5, 0.5})).ok());
  }
  EXPECT_EQ(sink->tuples().size(), 0u);  // still buffered
  ASSERT_TRUE(flatten->Flush().ok());
  // Target far above supply: everything retained as violations.
  EXPECT_EQ(sink->tuples().size(), 20u);
  EXPECT_EQ(flatten->last_report().n, 20u);
}

/// FNV-1a fold of one 64-bit value.
std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Pushes `sizes`-sized batches of one tuple stream into a Flatten and
/// checks its firing trace against `pinned_trace`, the FNV-1a digest of:
/// after every batch, the sizes of the batches fired so far and the
/// tuples delivered so far; after the final flush, the same again plus
/// every delivered id. The pins were recorded from a twin fed the same
/// stream one tuple per push, so they hold Flatten to firing at the same
/// tuple counts wherever batches are cut. Every second batch arrives with
/// every other row deselected (a Partition port's view).
void ExpectPinnedFiringTrace(const std::vector<std::size_t>& sizes,
                             std::uint64_t pinned_trace) {
  const geom::Rect region(0, 0, 2, 2);
  FlattenConfig config = BaseConfig(region, 6.0);
  config.batch_size = 16;
  auto flatten = FlattenOperator::Make("f", config, Rng(60)).MoveValue();
  auto sink = SinkOperator::Make("s", 1 << 16).MoveValue();
  flatten->AddOutput(sink.get());
  std::vector<std::size_t> reports;
  flatten->SetReportCallback([&](const FlattenBatchReport& report) {
    reports.push_back(report.n);
  });

  std::uint64_t trace = 14695981039346656037ULL;
  const auto fold_firings = [&] {
    trace = Fold(trace, reports.size());
    for (const std::size_t n : reports) {
      trace = Fold(trace, n);
    }
    trace = Fold(trace, sink->total_received());
  };
  Rng rng(61);
  std::uint64_t next_id = 1;
  double t = 0.0;
  std::size_t total = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const bool deselect = b % 2 == 1;
    std::vector<Tuple> rows;
    for (std::size_t i = 0; i < sizes[b] * (deselect ? 2 : 1); ++i) {
      t += 0.01;
      Tuple tuple = TupleAt({t, rng.Uniform(0.0, 2.0), rng.Uniform(0.0, 2.0)});
      tuple.id = next_id++;
      rows.push_back(tuple);
    }
    TupleBatch batch(rows);
    if (deselect) {
      std::vector<std::uint32_t> odd;
      for (std::uint32_t i = 1; i < rows.size(); i += 2) {
        odd.push_back(i);
      }
      batch.AdoptSelection(&odd);
    }
    ASSERT_EQ(batch.size(), sizes[b]);
    total += sizes[b];
    ASSERT_TRUE(flatten->PushBatch(batch).ok());
    // A batch that fills the buffer fires it within the push.
    EXPECT_EQ(flatten->stats().tuples_in / config.batch_size, reports.size());
    fold_firings();
  }
  ASSERT_TRUE(flatten->Flush().ok());
  fold_firings();
  for (const Tuple& tuple : sink->tuples()) {
    trace = Fold(trace, tuple.id);
  }
  EXPECT_EQ(trace, pinned_trace);
  EXPECT_EQ(flatten->stats().tuples_in, total);
}

TEST(FlattenTest, BatchEndingExactlyAtBatchSizeFiresOnTheBoundary) {
  // 5 + 11 = 16 and 9 + 7 = 16: both batches end on the boundary.
  ExpectPinnedFiringTrace({5, 11, 9, 7, 3}, 8656684084266995703ULL);
}

TEST(FlattenTest, BatchCrossingBatchSizeFiresAtEachCrossing) {
  // 7 + 20 crosses 16 once; 11 + 40 crosses it three times.
  ExpectPinnedFiringTrace({7, 20, 40, 15, 1}, 2803788178170988080ULL);
}

TEST(FlattenTest, SetTargetRateValidatesAndApplies) {
  FlattenConfig config = BaseConfig(geom::Rect(0, 0, 1, 1), 1.0);
  auto flatten = FlattenOperator::Make("f", config, Rng(51)).MoveValue();
  EXPECT_TRUE(flatten->SetTargetRate(3.0).ok());
  EXPECT_DOUBLE_EQ(flatten->target_rate(), 3.0);
  EXPECT_FALSE(flatten->SetTargetRate(0.0).ok());
  EXPECT_FALSE(flatten->SetTargetRate(-1.0).ok());
}

TEST(FlattenOnlineTest, HomogenizesStream) {
  const geom::Rect region(0, 0, 4, 4);
  const pp::SpaceTimeWindow w{0.0, 150.0, region};
  const auto model = pp::LinearIntensity::Make({0.5, 0.0, 1.5, 0.0});
  ASSERT_TRUE(model.ok());
  Rng source_rng(52);
  const auto points = pp::SimulateInhomogeneous(&source_rng, **model, w);
  ASSERT_TRUE(points.ok());

  FlattenConfig config = BaseConfig(region, 0.5);
  config.mode = FlattenMode::kOnline;
  config.online_warmup = 200;
  auto flatten = FlattenOperator::Make("f", config, Rng(53)).MoveValue();
  auto sink = SinkOperator::Make("sink", 1 << 22).MoveValue();
  flatten->AddOutput(sink.get());
  ASSERT_TRUE(PushPoints(*flatten, *points).ok());
  // Evaluate homogeneity on the post-warm-up half of the stream.
  std::vector<geom::SpaceTimePoint> retained;
  for (const auto& t : sink->tuples()) {
    if (t.point.t > 75.0) {
      retained.push_back(t.point);
    }
  }
  ASSERT_GT(retained.size(), 50u);
  const pp::SpaceTimeWindow half{75.0, 150.0, region};
  const auto after = pp::TestSpatialHomogeneity(retained, half, 3, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->p_value, 1e-3);
}

TEST(FlattenOnlineTest, WarmupForwardsEverything) {
  const geom::Rect region(0, 0, 1, 1);
  FlattenConfig config = BaseConfig(region, 0.001);
  config.mode = FlattenMode::kOnline;
  config.online_warmup = 50;
  auto flatten = FlattenOperator::Make("f", config, Rng(54)).MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  flatten->AddOutput(sink.get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(PushOne(*flatten, TupleAt({i * 0.1, 0.5, 0.5})).ok());
  }
  EXPECT_EQ(sink->tuples().size(), 50u);
}

}  // namespace
}  // namespace ops
}  // namespace craqr
