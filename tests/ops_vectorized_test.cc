#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "geometry/grid.h"
#include "ops/extras.h"
#include "ops/flatten.h"
#include "ops/partition.h"
#include "ops/pipeline.h"
#include "ops/thin.h"
#include "ops/union_op.h"
#include "ops/value_pool.h"

/// \file ops_vectorized_test.cc
/// \brief Byte-exact guarantees of the vectorized column sweeps.
///
/// The branch-free selection kernels (Rng::FillBernoulliMask +
/// TupleBatch::RetainFromMask, Rect::ContainsMask + SelectFromMask, and
/// the histogram routers) must deliver exactly the streams the
/// pre-vectorization scalar build delivered: every sweep's delivered
/// streams are pinned to FNV-1a digests captured from that build (same
/// workloads, same seeds), so e.g. a draw-order slip in the shared
/// Bernoulli threshold fails loudly. The kernel unit tests below check
/// each kernel against its scalar definition.
///
/// The engine-level churn workload repeats the pinning through the full
/// stack at shards {1,2,4} x pipeline depths {1,2}.

namespace craqr {
namespace {

// ---------------------------------------------------------------------------
// FNV-1a stream digests (same fold core_engine_test pins with)

std::uint64_t FnvFold(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t StreamDigest(const std::vector<ops::Tuple>& tuples) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& tuple : tuples) {
    h = FnvFold(h, &tuple.id, sizeof(tuple.id));
    h = FnvFold(h, &tuple.sensor_id, sizeof(tuple.sensor_id));
    h = FnvFold(h, &tuple.attribute, sizeof(tuple.attribute));
    h = FnvFold(h, &tuple.point.t, sizeof(tuple.point.t));
    h = FnvFold(h, &tuple.point.x, sizeof(tuple.point.x));
    h = FnvFold(h, &tuple.point.y, sizeof(tuple.point.y));
    const auto kind = static_cast<unsigned char>(tuple.value.kind());
    h = FnvFold(h, &kind, sizeof(kind));
    const std::string rendered = ops::PayloadToString(tuple.value);
    h = FnvFold(h, rendered.data(), rendered.size());
  }
  return h;
}

/// Deterministic workload stream: monotone time, positions across (and
/// slightly beyond) the [0,4) x [0,4) operator regions so containment
/// sweeps see out-of-region tuples too.
std::vector<ops::Tuple> MakeWorkloadTuples(std::size_t n,
                                           std::uint64_t seed = 91) {
  Rng rng(seed);
  std::vector<ops::Tuple> tuples;
  tuples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple t;
    t.id = i + 1;
    t.sensor_id = 1000 + (i % 37);
    t.attribute = i % 3 == 0 ? 1 : 0;
    t.point = geom::SpaceTimePoint{static_cast<double>(i) * 0.01,
                                   rng.Uniform(0.0, 4.5),
                                   rng.Uniform(0.0, 4.5)};
    t.value = ops::PayloadRef::Double(rng.Uniform(-5.0, 35.0));
    tuples.push_back(t);
  }
  return tuples;
}

constexpr std::size_t kWorkloadTuples = 2048;
constexpr std::size_t kDriveBatch = 192;  // not a divisor: ragged tail batch

/// Drives `head` with the workload in batches (vectorized path).
void DriveBatched(ops::Operator* head, const std::vector<ops::Tuple>& tuples) {
  ops::TupleBatch batch;
  std::size_t i = 0;
  while (i < tuples.size()) {
    const std::size_t end = std::min(i + kDriveBatch, tuples.size());
    batch.Clear();
    for (; i < end; ++i) {
      batch.Append(tuples[i]);
    }
    ASSERT_TRUE(head->PushBatch(batch).ok());
  }
}

// ---------------------------------------------------------------------------
// Kernel unit tests: RNG threshold + fills

TEST(VectorizedKernelTest, BernoulliThresholdMatchesUniformCompare) {
  // The raw-word threshold compare must decide exactly like the
  // historical `Uniform() < p` for every word and probability.
  const double probs[] = {0x1p-53,
                          1e-300,
                          1e-9,
                          0.1,
                          0.25,
                          0.5,
                          0.75,
                          0.9999999,
                          1.0 - 0x1p-53,
                          std::nextafter(1.0, 0.0),
                          std::nextafter(0.0, 1.0)};
  Rng words(123);
  std::vector<std::uint64_t> raw;
  for (int i = 0; i < 4096; ++i) {
    raw.push_back(words.NextU64());
  }
  // Boundary words for each p: the exact acceptance bound +/- 1.
  for (const double p : probs) {
    const std::uint64_t threshold = Rng::BernoulliThreshold(p);
    std::vector<std::uint64_t> cases = raw;
    if (threshold > 0) {
      cases.push_back(threshold - 1);
    }
    cases.push_back(threshold);
    cases.push_back(threshold + 2047);  // same high 53 bits as `threshold`
    for (const std::uint64_t v : cases) {
      const double uniform = static_cast<double>(v >> 11) * 0x1.0p-53;
      EXPECT_EQ(v < threshold, uniform < p)
          << "p=" << p << " v=" << v << " threshold=" << threshold;
    }
  }
}

TEST(VectorizedKernelTest, BernoulliNanRejectsAndConsumesOneDraw) {
  // NaN slips past both degenerate guards; the historical `Uniform() < p`
  // consumed a draw and rejected, and the threshold path must too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Rng::BernoulliThreshold(nan), 0u);
  Rng with_nan(3);
  Rng reference(3);
  EXPECT_FALSE(with_nan.Bernoulli(nan));
  (void)reference.NextU64();  // the draw the NaN row consumed
  EXPECT_EQ(with_nan.NextU64(), reference.NextU64());
}

TEST(VectorizedKernelTest, FillBernoulliMaskDrawOrderParity) {
  // Same seed: the batch fill must produce the scalar loop's decisions
  // AND leave the generator at the same stream position.
  for (const double p : {0.2, 0.5, 0.93}) {
    Rng scalar(77);
    Rng batch(77);
    std::vector<std::uint8_t> mask(513);
    batch.FillBernoulliMask(p, {mask.data(), mask.size()});
    for (std::size_t i = 0; i < mask.size(); ++i) {
      EXPECT_EQ(mask[i] != 0, scalar.Bernoulli(p)) << "p=" << p << " i=" << i;
    }
    EXPECT_EQ(batch.NextU64(), scalar.NextU64()) << "stream diverged, p=" << p;
  }
  // Degenerate probabilities consume no draw, exactly like the scalar
  // fast paths.
  Rng scalar(9);
  Rng batch(9);
  std::vector<std::uint8_t> mask(64);
  batch.FillBernoulliMask(0.0, {mask.data(), mask.size()});
  EXPECT_EQ(simd::MaskCount({mask.data(), mask.size()}), 0u);
  batch.FillBernoulliMask(1.0, {mask.data(), mask.size()});
  EXPECT_EQ(simd::MaskCount({mask.data(), mask.size()}), mask.size());
  EXPECT_EQ(batch.NextU64(), scalar.NextU64());
}

TEST(VectorizedKernelTest, FillBernoulliMaskPerRowProbsParity) {
  // Mixed degenerate and fractional rows: draw consumption must match a
  // scalar Bernoulli loop row for row (clamped p == 1 rows draw nothing).
  Rng gen(31);
  std::vector<double> probs;
  for (int i = 0; i < 301; ++i) {
    const int kind = i % 4;
    probs.push_back(kind == 0 ? 1.0 : (kind == 1 ? 0.0 : gen.Uniform()));
  }
  Rng scalar(55);
  Rng batch(55);
  std::vector<std::uint8_t> mask(probs.size());
  batch.FillBernoulliMask({probs.data(), probs.size()},
                          {mask.data(), mask.size()});
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(mask[i] != 0, scalar.Bernoulli(probs[i])) << "i=" << i;
  }
  EXPECT_EQ(batch.NextU64(), scalar.NextU64());
}

TEST(VectorizedKernelTest, FillUniformMatchesScalarDraws) {
  Rng scalar(4242);
  Rng batch(4242);
  std::vector<double> out(97);
  batch.FillUniform({out.data(), out.size()});
  for (const double v : out) {
    EXPECT_EQ(v, scalar.Uniform());
  }
  EXPECT_EQ(batch.NextU64(), scalar.NextU64());
}

// ---------------------------------------------------------------------------
// Kernel unit tests: containment masks

TEST(VectorizedKernelTest, ContainsMaskMatchesContainsIncludingEdges) {
  const geom::Rect rect(1.0, 2.0, 3.0, 5.0);
  std::vector<geom::SpaceTimePoint> points;
  // Every corner/edge combination of {min, interior, just-below-max, max,
  // beyond} per axis — the half-open boundary cases.
  const double xs[] = {0.5, 1.0, 2.0, std::nextafter(3.0, 0.0), 3.0, 3.5};
  const double ys[] = {1.5, 2.0, 3.0, std::nextafter(5.0, 0.0), 5.0, 6.0};
  for (const double x : xs) {
    for (const double y : ys) {
      points.push_back(geom::SpaceTimePoint{0.0, x, y});
    }
  }
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    points.push_back(geom::SpaceTimePoint{0.0, rng.Uniform(0.0, 4.0),
                                          rng.Uniform(0.0, 6.0)});
  }
  std::vector<std::uint8_t> mask(points.size());
  rect.ContainsMask({points.data(), points.size()}, mask.data());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(mask[i] != 0, rect.Contains(points[i].x, points[i].y))
        << "x=" << points[i].x << " y=" << points[i].y;
  }
}

TEST(VectorizedKernelTest, FillFlatCellsMatchesCellContaining) {
  const auto grid =
      geom::Grid::Make(geom::Rect(0, 0, 6, 6), 9).MoveValue();
  std::vector<geom::SpaceTimePoint> points;
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    points.push_back(geom::SpaceTimePoint{0.0, rng.Uniform(-1.0, 7.0),
                                          rng.Uniform(-1.0, 7.0)});
  }
  // Cell-boundary and region-boundary coordinates.
  for (const double v : {0.0, 2.0, 4.0, std::nextafter(6.0, 0.0), 6.0}) {
    points.push_back(geom::SpaceTimePoint{0.0, v, 3.0});
    points.push_back(geom::SpaceTimePoint{0.0, 3.0, v});
  }
  std::vector<std::uint32_t> flats(points.size());
  const std::uint32_t invalid = grid.NumCells();
  grid.FillFlatCells({points.data(), points.size()}, flats.data(), invalid);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto cell = grid.CellContaining(points[i].x, points[i].y);
    if (cell.has_value()) {
      EXPECT_EQ(flats[i], grid.FlatIndex(*cell)) << "i=" << i;
    } else {
      EXPECT_EQ(flats[i], invalid) << "i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel unit tests: compaction + histogram grouping

TEST(VectorizedKernelTest, MaskCompactAndHistogramGroup) {
  const std::uint8_t mask[] = {1, 0, 0, 1, 1, 0, 1};
  std::uint32_t out[7];
  ASSERT_EQ(simd::MaskCompact({mask, 7}, out), 4u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 3u);
  EXPECT_EQ(out[2], 4u);
  EXPECT_EQ(out[3], 6u);
  const std::uint32_t values[] = {10, 20, 30, 40, 50, 60, 70};
  std::uint32_t gathered[7];
  ASSERT_EQ(simd::MaskCompactGather({mask, 7}, values, gathered), 4u);
  EXPECT_EQ(gathered[0], 10u);
  EXPECT_EQ(gathered[3], 70u);
  EXPECT_EQ(simd::MaskCount({mask, 7}), 4u);

  // Histogram grouping: stable within buckets, end offsets on return.
  const std::uint32_t keys[] = {2, 0, 2, 1, 0, 2};
  std::vector<std::uint32_t> counts(3, 0);
  std::uint32_t grouped[6];
  simd::HistogramGroup({keys, 6}, {counts.data(), counts.size()}, grouped);
  EXPECT_EQ(counts[0], 2u);  // end of bucket 0
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 6u);
  const std::uint32_t expect[] = {1, 4, 3, 0, 2, 5};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(grouped[i], expect[i]) << "i=" << i;
  }
}

TEST(VectorizedKernelTest, TupleBatchMaskSelection) {
  const auto tuples = MakeWorkloadTuples(10);
  // RetainFromMask on a plain batch (mask indexed by active position).
  ops::TupleBatch batch(tuples);
  const std::uint8_t keep_even[] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
  batch.RetainFromMask({keep_even, 10});
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.ToTuples()[1].id, tuples[2].id);
  // Second application: mask now indexed by the 5 remaining actives.
  const std::uint8_t keep_last[] = {0, 0, 0, 0, 1};
  batch.RetainFromMask({keep_last, 5});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.ToTuples()[0].id, tuples[8].id);

  // SelectFromMask intersects with the raw-indexed mask.
  ops::TupleBatch raw_sel(tuples);
  raw_sel.RetainFromMask({keep_even, 10});
  std::uint8_t raw_mask[10] = {};
  raw_mask[2] = 1;
  raw_mask[3] = 1;  // deselected husk: must stay deselected
  raw_mask[6] = 1;
  raw_sel.SelectFromMask({raw_mask, 10});
  const auto selected = raw_sel.ToTuples();
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].id, tuples[2].id);
  EXPECT_EQ(selected[1].id, tuples[6].id);

  // GatherActiveWhere agrees with the selection.
  std::vector<std::uint32_t> gathered;
  raw_sel.GatherActiveWhere({raw_mask, 10}, &gathered);
  ASSERT_EQ(gathered.size(), 2u);
  EXPECT_EQ(gathered[0], 2u);
  EXPECT_EQ(gathered[1], 6u);

  // RetainFromMask routes drops into the side batch, in order.
  ops::TupleBatch with_drops(tuples);
  ops::TupleBatch dropped;
  with_drops.RetainFromMask({keep_even, 10}, &dropped);
  ASSERT_EQ(dropped.size(), 5u);
  EXPECT_EQ(dropped.ToTuples()[0].id, tuples[1].id);
}

TEST(VectorizedKernelTest, AppendRowsCopiesGroupedColumns) {
  const auto tuples = MakeWorkloadTuples(8);
  const ops::TupleBatch src(tuples);
  ops::TupleBatch dst;
  const std::uint32_t raws[] = {6, 1, 3};
  dst.AppendRows(src, {raws, 3});
  const auto out = dst.ToTuples();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, tuples[6].id);
  EXPECT_EQ(out[1].id, tuples[1].id);
  EXPECT_EQ(out[2].id, tuples[3].id);
  EXPECT_EQ(out[2].sensor_id, tuples[3].sensor_id);
  EXPECT_EQ(out[2].point, tuples[3].point);
}

/// Every column of `a` and `b` (active rows, in order), payload handles
/// compared bitwise.
void ExpectSameColumns(const ops::TupleBatch& a, const ops::TupleBatch& b) {
  ASSERT_FALSE(a.has_selection());
  ASSERT_FALSE(b.has_selection());
  ASSERT_EQ(a.size(), b.size());
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Ids()[i], b.Ids()[i]) << i;
    EXPECT_EQ(a.Attributes()[i], b.Attributes()[i]) << i;
    EXPECT_EQ(a.Points()[i], b.Points()[i]) << i;
    EXPECT_TRUE(a.Values()[i] == b.Values()[i]) << i;
    EXPECT_EQ(a.SensorIds()[i], b.SensorIds()[i]) << i;
  }
}

TEST(VectorizedKernelTest, ColumnGathersMatchRowByRowAppend) {
  // Mixed payloads, strings included, so the value column carries pool
  // handles; the source gets a non-contiguous ascending selection with
  // husk rows between (and after) the survivors.
  auto tuples = MakeWorkloadTuples(64);
  const char* labels[] = {"sun", "fog", "hail"};
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i % 4 == 1) {
      tuples[i].value = ops::PayloadRef::String(labels[i % 3]);
    } else if (i % 4 == 2) {
      tuples[i].value = ops::PayloadRef::Bool(i % 8 == 2);
    }
  }
  ops::TupleBatch src(tuples);
  src.RetainRaw([](std::uint32_t raw) {
    return raw % 3 == 0 || raw % 7 == 5 || raw == 1;
  });
  ASSERT_TRUE(src.has_selection());
  ASSERT_LT(src.size(), src.raw_size());
  std::vector<std::uint32_t> active;
  src.ForEachRaw([&active](std::uint32_t raw) { active.push_back(raw); });
  ASSERT_GT(active.size(), 2u);

  // Both gathers append behind rows already present.
  const ops::Tuple lead = MakeWorkloadTuples(1, 5).front();
  ops::TupleBatch reference;
  reference.Append(lead);
  for (const std::uint32_t raw : active) {
    reference.AppendRow(src, raw);
  }
  ops::TupleBatch gathered;
  gathered.Append(lead);
  gathered.AppendActiveFrom(src);
  ExpectSameColumns(gathered, reference);

  // AppendRows takes any raw list: husk rows and a descending tail too.
  std::vector<std::uint32_t> raws = {2, 5, 6, 11, 40, 63, 9, 0};
  ops::TupleBatch by_rows;
  by_rows.Append(lead);
  by_rows.AppendRows(src, {raws.data(), raws.size()});
  ops::TupleBatch row_reference;
  row_reference.Append(lead);
  for (const std::uint32_t raw : raws) {
    row_reference.AppendRow(src, raw);
  }
  ExpectSameColumns(by_rows, row_reference);
}

// ---------------------------------------------------------------------------
// Union membership: the coverage table equals the OR of Rect::Contains

/// Feeds every point through fresh U operators (one-row batches, and one
/// selected batch) and checks `out_of_region` against the OR of
/// half-open Rect::Contains over `tiles`, point by point.
void ExpectUnionMembershipExact(const std::vector<geom::Rect>& tiles,
                                const std::vector<geom::SpaceTimePoint>& pts) {
  auto one_row = ops::UnionOperator::Make("u", tiles).MoveValue();
  std::uint64_t expected_total = 0;
  std::uint64_t expected_selected = 0;
  ops::TupleBatch all;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool inside = false;
    for (const geom::Rect& tile : tiles) {
      inside = inside || tile.Contains(pts[i].x, pts[i].y);
    }
    ops::Tuple tuple;
    tuple.id = i;
    tuple.point = pts[i];
    ops::TupleBatch single;
    single.Append(tuple);
    const std::uint64_t batch_before = one_row->out_of_region();
    ASSERT_TRUE(one_row->PushBatch(single).ok());
    EXPECT_EQ(one_row->out_of_region() - batch_before, inside ? 0u : 1u)
        << "batch x=" << pts[i].x << " y=" << pts[i].y;
    all.Append(tuple);
    expected_total += !inside;
    expected_selected += (i % 3 != 1) && !inside;
  }
  EXPECT_EQ(one_row->out_of_region(), expected_total);
  // A selected batch counts only its active rows.
  auto selected = ops::UnionOperator::Make("u", tiles).MoveValue();
  all.RetainRaw([](std::uint32_t raw) { return raw % 3 != 1; });
  ASSERT_TRUE(selected->PushBatch(all).ok());
  EXPECT_EQ(selected->out_of_region(), expected_selected);
}

/// Every tile edge, one ulp either side of it, the midpoints between
/// consecutive edges and two outside values, per axis; the cross product
/// puts points on every seam, edge and corner.
std::vector<geom::SpaceTimePoint> SeamProbePoints(
    const std::vector<geom::Rect>& tiles) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const geom::Rect& tile : tiles) {
    for (const double v : {tile.x_min(), tile.x_max()}) {
      xs.insert(xs.end(), {v, std::nextafter(v, -1e300),
                           std::nextafter(v, 1e300)});
    }
    for (const double v : {tile.y_min(), tile.y_max()}) {
      ys.insert(ys.end(), {v, std::nextafter(v, -1e300),
                           std::nextafter(v, 1e300)});
    }
  }
  for (std::vector<double>* axis : {&xs, &ys}) {
    std::sort(axis->begin(), axis->end());
    axis->erase(std::unique(axis->begin(), axis->end()), axis->end());
    const std::size_t n = axis->size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      axis->push_back(0.5 * ((*axis)[i] + (*axis)[i + 1]));
    }
    axis->push_back(-1e9);
    axis->push_back(1e9);
  }
  std::vector<geom::SpaceTimePoint> points;
  for (const double x : xs) {
    for (const double y : ys) {
      points.push_back(geom::SpaceTimePoint{0.0, x, y});
    }
  }
  points.push_back(geom::SpaceTimePoint{
      0.0, std::numeric_limits<double>::quiet_NaN(), tiles[0].y_min()});
  points.push_back(geom::SpaceTimePoint{
      0.0, tiles[0].x_min(), std::numeric_limits<double>::infinity()});
  return points;
}

TEST(UnionMembershipTest, GridCellSeamsMatchContainsOr) {
  // On these grids x0 + w and x_min + (q + 1) * w differ by an ulp at
  // some seams. CellRect derives both sides of a seam from the latter, so
  // adjacent tiles share every edge bit for bit (HandMadeSeamsMatchContainsOr
  // keeps one-ulp gaps covered).
  const std::pair<geom::Rect, std::uint32_t> grids[] = {
      {geom::Rect(-1.3, 0.2, 2.9, 3.1), 16},
      {geom::Rect(0.3, 0.3, 2.3, 2.3), 25},
      {geom::Rect(0, 0, 6, 6), 9}};
  std::size_t seams = 0;
  for (const auto& [region, h] : grids) {
    SCOPED_TRACE(region.ToString() + " h=" + std::to_string(h));
    const auto grid = geom::Grid::Make(region, h).MoveValue();
    std::uint32_t side = 1;
    while ((side + 1) * (side + 1) <= h) {
      ++side;
    }
    std::vector<geom::Rect> tiles;
    for (std::uint32_t q = 0; q < side; ++q) {
      for (std::uint32_t r = 0; r < side; ++r) {
        tiles.push_back(grid.CellRect({q, r}));
        if (q + 1 < side) {
          seams += tiles.back().x_max() != grid.CellRect({q + 1, r}).x_min();
        }
        if (r + 1 < side) {
          seams += tiles.back().y_max() != grid.CellRect({q, r + 1}).y_min();
        }
      }
    }
    ExpectUnionMembershipExact(tiles, SeamProbePoints(tiles));
  }
  EXPECT_EQ(seams, 0u) << "adjacent cell edges differ";
}

TEST(UnionMembershipTest, HandMadeSeamsMatchContainsOr) {
  // A 2 x 2 tiling whose inner edges open one-ulp gaps on x and y, plus
  // an L of three tiles (the fourth quadrant missing would fail the
  // tiling rule, so it is split off as its own thin strip instead).
  const double a = 1.0;
  const double a_up = std::nextafter(a, 2.0);
  const double b = 0.7;
  const double b_up = std::nextafter(b, 2.0);
  const std::vector<geom::Rect> quad = {
      geom::Rect(0, 0, a, b), geom::Rect(a_up, 0, 2, b),
      geom::Rect(0, b_up, a, 2), geom::Rect(a_up, b_up, 2, 2)};
  ExpectUnionMembershipExact(quad, SeamProbePoints(quad));
  const std::vector<geom::Rect> strips = {
      geom::Rect(0, 0, a, 2), geom::Rect(a_up, 0, 2, b),
      geom::Rect(a_up, b, 2, 2)};
  ExpectUnionMembershipExact(strips, SeamProbePoints(strips));
}

// ---------------------------------------------------------------------------
// Thin chain: the Bernoulli mask sweep

struct ThinChain {
  ops::Pipeline pipeline;
  ops::ThinOperator* head = nullptr;
  ops::SinkOperator* sink = nullptr;
};

ThinChain MakeThinChain(std::size_t depth) {
  ThinChain topo;
  std::vector<ops::ThinOperator*> thins;
  double rate = 64.0;
  for (std::size_t i = 0; i < depth; ++i) {
    auto thin = ops::ThinOperator::Make("t" + std::to_string(i), rate,
                                        rate * 0.75, Rng(400 + i))
                    .MoveValue();
    rate *= 0.75;
    thins.push_back(topo.pipeline.Add(std::move(thin)));
    if (i > 0) {
      thins[i - 1]->AddOutput(thins[i]);
    }
  }
  topo.head = thins.front();
  topo.sink = topo.pipeline.Add(ops::SinkOperator::Make("sink").MoveValue());
  thins.back()->AddOutput(topo.sink);
  return topo;
}

// Digests pinned from the pre-vectorization scalar build (same seeds).
constexpr std::uint64_t kThinChainDigest[2] = {
    7534638035245917704ULL, 5103047306804485740ULL};  // depths {1, 3}

TEST(VectorizedSweepTest, ThinChainMatchesPinnedDigest) {
  const auto tuples = MakeWorkloadTuples(kWorkloadTuples);
  const std::size_t depths[2] = {1, 3};
  for (int d = 0; d < 2; ++d) {
    SCOPED_TRACE("depth=" + std::to_string(depths[d]));
    ThinChain vectorized = MakeThinChain(depths[d]);
    DriveBatched(vectorized.head, tuples);
    EXPECT_EQ(StreamDigest(vectorized.sink->tuples()), kThinChainDigest[d]);
  }
}

// ---------------------------------------------------------------------------
// Partition fan-out: the containment mask sweep

struct PartitionFanout {
  ops::Pipeline pipeline;
  ops::PartitionOperator* head = nullptr;
  std::vector<ops::SinkOperator*> sinks;
};

PartitionFanout MakePartitionFanout(std::size_t connected) {
  PartitionFanout topo;
  // Four vertical strips tiling [0,4) x [0,4); workload x extends to 4.5,
  // so some tuples are unrouted. With connected < 4 the trailing strips
  // have no consumer and count unrouted as well.
  std::vector<geom::Rect> strips;
  for (int k = 0; k < 4; ++k) {
    strips.emplace_back(k * 1.0, 0.0, (k + 1) * 1.0, 4.0);
  }
  topo.head = topo.pipeline.Add(
      ops::PartitionOperator::Make("p", std::move(strips)).MoveValue());
  for (std::size_t k = 0; k < connected; ++k) {
    topo.sinks.push_back(topo.pipeline.Add(
        ops::SinkOperator::Make("s" + std::to_string(k)).MoveValue()));
    topo.head->AddOutput(topo.sinks.back());
  }
  return topo;
}

constexpr std::uint64_t kPartitionPortDigest[4] = {
    7728610833463895768ULL, 15665844995379913116ULL, 8467126206275192731ULL,
    16677880414956209323ULL};
constexpr std::uint64_t kPartitionFanoutUnrouted = 443;

TEST(VectorizedSweepTest, PartitionFanoutMatchesPinnedDigest) {
  const auto tuples = MakeWorkloadTuples(kWorkloadTuples);
  PartitionFanout vectorized = MakePartitionFanout(4);
  DriveBatched(vectorized.head, tuples);
  EXPECT_EQ(vectorized.head->unrouted(), kPartitionFanoutUnrouted);
  for (std::size_t k = 0; k < 4; ++k) {
    SCOPED_TRACE("port=" + std::to_string(k));
    EXPECT_EQ(StreamDigest(vectorized.sinks[k]->tuples()),
              kPartitionPortDigest[k]);
  }
}

TEST(VectorizedSweepTest, PartitionCountsDisconnectedPortsUnrouted) {
  const auto tuples = MakeWorkloadTuples(kWorkloadTuples);
  PartitionFanout vectorized = MakePartitionFanout(2);
  DriveBatched(vectorized.head, tuples);
  EXPECT_EQ(vectorized.head->unrouted(), 1252u);
  for (std::size_t k = 0; k < 2; ++k) {
    // The connected ports deliver what they deliver with all four
    // connected.
    EXPECT_EQ(StreamDigest(vectorized.sinks[k]->tuples()),
              kPartitionPortDigest[k]);
  }
}

// ---------------------------------------------------------------------------
// Union: the membership-mask sweep

constexpr std::uint64_t kUnionDigest = 10422467684188148ULL;
constexpr std::uint64_t kUnionOutOfRegion = 443;

TEST(VectorizedSweepTest, UnionMatchesPinnedDigest) {
  const auto tuples = MakeWorkloadTuples(kWorkloadTuples);
  auto make = [] {
    ops::Pipeline pipeline;
    auto* u = pipeline.Add(ops::UnionOperator::Make(
                               "u", {geom::Rect(0, 0, 2, 4),
                                     geom::Rect(2, 0, 4, 4)})
                               .MoveValue());
    auto* sink = pipeline.Add(ops::SinkOperator::Make("sink").MoveValue());
    u->AddOutput(sink);
    return std::make_tuple(std::move(pipeline), u, sink);
  };
  auto [vp, vu, vs] = make();
  DriveBatched(vu, tuples);
  EXPECT_EQ(vu->out_of_region(), kUnionOutOfRegion);
  EXPECT_EQ(StreamDigest(vs->tuples()), kUnionDigest);
}

// ---------------------------------------------------------------------------
// Flatten (kBatch): the per-row-probability Bernoulli sweep, violations
// (p clamped to 1: no draw) included

constexpr std::uint64_t kFlattenDigest = 11833642559818749591ULL;
constexpr std::size_t kFlattenLastRetained = 18;
constexpr std::size_t kFlattenLastViolations = 2;

TEST(VectorizedSweepTest, FlattenBatchMatchesPinnedDigest) {
  const auto tuples = MakeWorkloadTuples(kWorkloadTuples);
  auto make = [] {
    ops::Pipeline pipeline;
    ops::FlattenConfig config;
    config.region = geom::Rect(0, 0, 4.5, 4.5);
    config.target_rate = 3.0;  // mid target: draws AND p>1 clamps occur
    config.target_mode = ops::FlattenTargetMode::kRatePerVolume;
    config.batch_size = 96;
    auto* f = pipeline.Add(
        ops::FlattenOperator::Make("f", config, Rng(71)).MoveValue());
    auto* sink = pipeline.Add(ops::SinkOperator::Make("sink").MoveValue());
    f->AddOutput(sink);
    return std::make_tuple(std::move(pipeline), f, sink);
  };
  auto [vp, vf, vs] = make();
  DriveBatched(vf, tuples);
  ASSERT_TRUE(vf->Flush().ok());
  EXPECT_EQ(vf->last_report().retained, kFlattenLastRetained);
  EXPECT_EQ(vf->last_report().violations, kFlattenLastViolations);
  EXPECT_EQ(StreamDigest(vs->tuples()), kFlattenDigest);
}

// ---------------------------------------------------------------------------
// Full churn workload through the engine, shards {1,2,4} x depths {1,2}

sensing::CrowdWorld MakeChurnWorld(std::size_t sensors) {
  sensing::PopulationConfig pc;
  pc.region = geom::Rect(0, 0, 6, 6);
  pc.num_sensors = sensors;
  pc.responsiveness_sigma = 0.2;
  Rng rng(5);
  auto population = sensing::SensorPopulation::Make(pc, &rng).MoveValue();
  auto world =
      sensing::CrowdWorld::Make(std::move(population), rng.Fork()).MoveValue();
  sensing::TemperatureField::Params tp;
  const sensing::ResponseBehavior device =
      sensing::ResponseModel::DeviceBehavior();
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "temp", false,
                      sensing::TemperatureField::Make(tp).MoveValue(), device)
                  .ok());
  sensing::RainCell cell;
  cell.x0 = 3.0;
  cell.y0 = 3.0;
  cell.radius = 2.0;
  sensing::ResponseBehavior human = sensing::ResponseModel::HumanBehavior();
  human.base_logit = 2.0;
  human.delay_mu = -1.0;
  EXPECT_TRUE(world
                  .RegisterAttribute("rain", true,
                                     sensing::RainField::Make({cell}).MoveValue(),
                                     human)
                  .ok());
  return world;
}

struct ChurnDigests {
  std::uint64_t rain = 0;
  std::uint64_t temp = 0;
};

void RunChurnWorkload(std::size_t num_shards, std::size_t pipeline_depth,
                      ChurnDigests* out) {
  engine::EngineConfig config;
  config.grid_h = 9;
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 32;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 32.0;  // saturate fast so incentives engage
  config.enable_incentives = true;
  config.incentive.max = 8.0;
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  auto engine =
      engine::CraqrEngine::Make(MakeChurnWorld(80), config).MoveValue();
  const auto rain = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 20 PER KM2 PER MIN");
  const auto temp1 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER MIN");
  ASSERT_TRUE(rain.ok());
  ASSERT_TRUE(temp1.ok());
  ASSERT_TRUE(engine->RunFor(12.0).ok());
  ASSERT_TRUE(engine->Cancel(temp1->id).ok());
  ASSERT_TRUE(engine->RunFor(6.0).ok());
  const auto temp2 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(1, 1, 5, 5) RATE 0.4 PER KM2 PER MIN");
  ASSERT_TRUE(temp2.ok());
  ASSERT_TRUE(engine->RunFor(12.0).ok());
  ASSERT_GT(rain->sink->total_received(), 0u);
  ASSERT_GT(temp2->sink->total_received(), 0u);
  out->rain = StreamDigest(rain->sink->tuples());
  out->temp = StreamDigest(temp2->sink->tuples());
}

constexpr std::uint64_t kChurnRainDigest[2] = {
    2045424154292704630ULL, 16683548660543586759ULL};  // depths {1, 2}
constexpr std::uint64_t kChurnTempDigest[2] = {
    6270273867009908985ULL, 12692121609131728161ULL};

TEST(VectorizedSweepTest, ChurnWorkloadPinnedAcrossShardsAndDepths) {
  const std::size_t depths[2] = {1, 2};
  for (int d = 0; d < 2; ++d) {
    SCOPED_TRACE("depth=" + std::to_string(depths[d]));
    ChurnDigests reference;
    RunChurnWorkload(1, depths[d], &reference);
    EXPECT_EQ(reference.rain, kChurnRainDigest[d]);
    EXPECT_EQ(reference.temp, kChurnTempDigest[d]);
    for (const std::size_t shards : {2u, 4u}) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards));
      ChurnDigests sharded;
      RunChurnWorkload(shards, depths[d], &sharded);
      EXPECT_EQ(sharded.rain, reference.rain);
      EXPECT_EQ(sharded.temp, reference.temp);
    }
  }
}

}  // namespace
}  // namespace craqr
