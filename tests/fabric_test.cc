#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"
#include "common/rng.h"
#include "fabric/fabricator.h"
#include "pointprocess/simulate.h"

namespace craqr {
namespace fabric {
namespace {

constexpr ops::AttributeId kRain = 0;
constexpr ops::AttributeId kTemp = 1;

geom::Grid TestGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 3, 3), 9).MoveValue();
}

std::unique_ptr<StreamFabricator> MakeFabricator(
    FabricConfig config = FabricConfig()) {
  return StreamFabricator::Make(TestGrid(), config).MoveValue();
}

ops::Tuple TupleAt(double t, double x, double y,
                   ops::AttributeId attribute = kRain) {
  ops::Tuple tuple;
  tuple.point = geom::SpaceTimePoint{t, x, y};
  tuple.attribute = attribute;
  return tuple;
}

TEST(FabricatorTest, MakeValidatesConfig) {
  FabricConfig bad;
  bad.headroom = 1.0;
  EXPECT_FALSE(StreamFabricator::Make(TestGrid(), bad).ok());
  bad = FabricConfig();
  bad.flatten_batch_size = 1;
  EXPECT_FALSE(StreamFabricator::Make(TestGrid(), bad).ok());
  bad = FabricConfig();
  bad.monitor_window = 0.0;
  EXPECT_FALSE(StreamFabricator::Make(TestGrid(), bad).ok());
  bad = FabricConfig();
  bad.sink_capacity = 0;
  EXPECT_FALSE(StreamFabricator::Make(TestGrid(), bad).ok());
}

TEST(FabricatorTest, InsertValidatesQuery) {
  auto fabricator = MakeFabricator();
  // Rate must be positive.
  EXPECT_FALSE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 0.0).ok());
  // Region below one cell area rejected.
  EXPECT_FALSE(
      fabricator->InsertQuery(kRain, geom::Rect(0, 0, 0.5, 0.5), 1.0).ok());
  // Region outside the grid rejected.
  EXPECT_FALSE(
      fabricator->InsertQuery(kRain, geom::Rect(10, 10, 12, 12), 1.0).ok());
}

TEST(FabricatorTest, SingleCellQueryMaterializesOneCell) {
  auto fabricator = MakeFabricator();
  const auto stream =
      fabricator->InsertQuery(kRain, geom::Rect(1, 1, 2, 2), 4.0);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(fabricator->NumMaterializedCells(), 1u);
  EXPECT_EQ(fabricator->NumQueries(), 1u);
  const auto cells = fabricator->QueryCells(stream->id);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 1u);
  EXPECT_EQ((*cells)[0], (geom::CellIndex{1, 1}));
  // Topology: F + T in the cell; merge head + monitor + sink for the query.
  const std::string description = fabricator->DescribeTopology();
  EXPECT_NE(description.find("F(out=5"), std::string::npos);  // 1.25 * 4
  EXPECT_NE(description.find("T(->4)"), std::string::npos);
}

TEST(FabricatorTest, OnlyTouchedCellsAreMaterialized) {
  auto fabricator = MakeFabricator();
  // 2x1-cell region: exactly 2 of 9 cells materialize.
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 2, 1), 2.0).ok());
  EXPECT_EQ(fabricator->NumMaterializedCells(), 2u);
}

TEST(FabricatorTest, SharedFOperatorAcrossQueries) {
  auto fabricator = MakeFabricator();
  // Two queries on the same cell and attribute, different rates: one F,
  // a two-T descending chain.
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 8.0).ok());
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 2.0).ok());
  EXPECT_EQ(fabricator->NumMaterializedCells(), 1u);
  const std::string description = fabricator->DescribeTopology();
  // One F only.
  EXPECT_EQ(description.find("F(out="), description.rfind("F(out="));
  // Chain sorted descending: T(->8) before T(->2).
  const auto pos_high = description.find("T(->8)");
  const auto pos_low = description.find("T(->2)");
  ASSERT_NE(pos_high, std::string::npos);
  ASSERT_NE(pos_low, std::string::npos);
  EXPECT_LT(pos_high, pos_low);
}

TEST(FabricatorTest, EqualRateQueriesShareOneThin) {
  auto fabricator = MakeFabricator();
  const auto s1 = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 5.0);
  const auto s2 = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 5.0);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const std::string description = fabricator->DescribeTopology();
  // A single T with both taps.
  EXPECT_EQ(description.find("T(->5)"), description.rfind("T(->5)"));
  EXPECT_NE(description.find("Q" + std::to_string(s1->id)),
            std::string::npos);
  EXPECT_NE(description.find("Q" + std::to_string(s2->id)),
            std::string::npos);
}

TEST(FabricatorTest, HigherRateInsertionRaisesFTarget) {
  auto fabricator = MakeFabricator();
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 2.0).ok());
  // F target = 2.5 now. Insert a faster query: F must rise above 10.
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 10.0).ok());
  const std::string description = fabricator->DescribeTopology();
  EXPECT_NE(description.find("F(out=12.5)"), std::string::npos);
  // New T(->10) must precede the old T(->2).
  EXPECT_LT(description.find("T(->10)"), description.find("T(->2)"));
}

TEST(FabricatorTest, DifferentAttributesGetSeparateChains) {
  auto fabricator = MakeFabricator();
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 2.0).ok());
  ASSERT_TRUE(fabricator->InsertQuery(kTemp, geom::Rect(0, 0, 1, 1), 3.0).ok());
  EXPECT_EQ(fabricator->NumMaterializedCells(), 1u);
  const std::string description = fabricator->DescribeTopology();
  EXPECT_NE(description.find("A<0>"), std::string::npos);
  EXPECT_NE(description.find("A<1>"), std::string::npos);
}

TEST(FabricatorTest, PartialOverlapCreatesPartition) {
  auto fabricator = MakeFabricator();
  // Region covering cell (0,0) fully and half of cell (1,0): the paper's
  // "P-operators are required only for [the partially overlapping] query".
  const auto stream =
      fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1.5, 1), 2.0);
  ASSERT_TRUE(stream.ok());
  std::size_t partitions = 0;
  fabricator->VisitOperators([&partitions](const ops::Operator& op) {
    partitions += op.kind() == ops::OperatorKind::kPartition ? 1 : 0;
  });
  EXPECT_EQ(partitions, 1u);
}

TEST(FabricatorTest, WholeGridQueryIsAcceptedOnEveryGrid) {
  // Regions whose cell width is not a power-of-two fraction: adjacent
  // cell rectangles must share their seams exactly, or the query's U
  // rejects its own cells as overlapping.
  for (const geom::Rect& region :
       {geom::Rect(0.1, 0.3, 1.0, 1.7), geom::Rect(0.1, 0.1, 0.7, 0.7)}) {
    SCOPED_TRACE(region.ToString());
    auto fabricator =
        StreamFabricator::Make(geom::Grid::Make(region, 16).MoveValue())
            .MoveValue();
    const auto stream = fabricator->InsertQuery(kRain, region, 1.0);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_EQ(fabricator->NumMaterializedCells(), 16u);
    EXPECT_TRUE(fabricator->ValidateInvariants().ok());
  }
}

TEST(FabricatorTest, ProcessBatchRoutesOnlyMaterializedCells) {
  auto fabricator = MakeFabricator();
  ASSERT_TRUE(fabricator->InsertQuery(kRain, geom::Rect(1, 1, 2, 2), 2.0).ok());
  // One-row batches, so each arrival's routing shows on its own.
  const auto process = [&fabricator](const ops::Tuple& tuple) {
    ops::TupleBatch batch;
    batch.Append(tuple);
    return fabricator->ProcessBatch(batch);
  };
  // In the materialized cell, right attribute.
  ASSERT_TRUE(process(TupleAt(0.0, 1.5, 1.5, kRain)).ok());
  EXPECT_EQ(fabricator->tuples_routed(), 1u);
  // Wrong attribute: dropped.
  ASSERT_TRUE(process(TupleAt(0.0, 1.5, 1.5, kTemp)).ok());
  // Unmaterialized cell: dropped.
  ASSERT_TRUE(process(TupleAt(0.0, 0.5, 0.5, kRain)).ok());
  // Outside the grid: dropped.
  ASSERT_TRUE(process(TupleAt(0.0, 50.0, 50.0, kRain)).ok());
  EXPECT_EQ(fabricator->tuples_unrouted(), 3u);
  EXPECT_EQ(fabricator->tuples_routed(), 1u);
}

TEST(FabricatorTest, FabricatedStreamApproximatesRequestedRate) {
  FabricConfig config;
  config.flatten_batch_size = 64;
  auto fabricator = MakeFabricator(config);
  const double requested = 2.0;
  const auto stream =
      fabricator->InsertQuery(kRain, geom::Rect(0, 0, 3, 3), requested);
  ASSERT_TRUE(stream.ok());

  // Feed a homogeneous 20 /km2/min supply over the whole grid for 40 min.
  Rng rng(71);
  const pp::SpaceTimeWindow w{0.0, 40.0, geom::Rect(0, 0, 3, 3)};
  const auto supply = pp::SimulateHomogeneous(&rng, 20.0, w);
  ASSERT_TRUE(supply.ok());
  ops::TupleBatch batch;
  for (const auto& p : *supply) {
    batch.Append(TupleAt(p.t, p.x, p.y, kRain));
  }
  ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());

  const double delivered =
      static_cast<double>(stream->sink->total_received()) / w.Volume();
  EXPECT_NEAR(delivered, requested, 0.4);
}

TEST(FabricatorTest, RemoveQueryCleansUpCompletely) {
  auto fabricator = MakeFabricator();
  const auto stream =
      fabricator->InsertQuery(kRain, geom::Rect(0, 0, 2, 2), 3.0);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(fabricator->NumMaterializedCells(), 4u);
  ASSERT_TRUE(fabricator->RemoveQuery(stream->id).ok());
  // "until all the streams and the key in the hashmap are deleted".
  EXPECT_EQ(fabricator->NumMaterializedCells(), 0u);
  EXPECT_EQ(fabricator->NumQueries(), 0u);
  EXPECT_EQ(fabricator->TotalOperators(), 0u);
  EXPECT_EQ(fabricator->RemoveQuery(stream->id).code(),
            StatusCode::kNotFound);
}

TEST(FabricatorTest, RemoveMiddleQueryMergesThins) {
  auto fabricator = MakeFabricator();
  const auto fast = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 9.0);
  const auto mid = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 6.0);
  const auto slow = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 3.0);
  ASSERT_TRUE(fast.ok() && mid.ok() && slow.ok());
  ASSERT_TRUE(fabricator->RemoveQuery(mid->id).ok());
  const std::string description = fabricator->DescribeTopology();
  // The T(->6) merged away; the survivors remain in order.
  EXPECT_EQ(description.find("T(->6)"), std::string::npos);
  EXPECT_LT(description.find("T(->9)"), description.find("T(->3)"));
  // The other two queries keep flowing end to end.
  ops::TupleBatch batch;
  Rng rng(72);
  const pp::SpaceTimeWindow w{0.0, 30.0, geom::Rect(0, 0, 1, 1)};
  const auto supply = pp::SimulateHomogeneous(&rng, 40.0, w);
  ASSERT_TRUE(supply.ok());
  for (const auto& p : *supply) {
    batch.Append(TupleAt(p.t, p.x, p.y, kRain));
  }
  ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());
  EXPECT_GT(fast->sink->total_received(), 0u);
  EXPECT_GT(slow->sink->total_received(), 0u);
}

TEST(FabricatorTest, RemoveSharedTapKeepsThinForOtherQuery) {
  auto fabricator = MakeFabricator();
  const auto s1 = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 5.0);
  const auto s2 = fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 5.0);
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_TRUE(fabricator->RemoveQuery(s1->id).ok());
  const std::string description = fabricator->DescribeTopology();
  EXPECT_NE(description.find("T(->5)"), std::string::npos);
  EXPECT_EQ(fabricator->NumMaterializedCells(), 1u);
  ASSERT_TRUE(fabricator->RemoveQuery(s2->id).ok());
  EXPECT_EQ(fabricator->NumMaterializedCells(), 0u);
}

TEST(FabricatorTest, ViolationCallbackFires) {
  FabricConfig config;
  config.flatten_batch_size = 32;
  auto fabricator = MakeFabricator(config);
  // Demand far above supply.
  ASSERT_TRUE(
      fabricator->InsertQuery(kRain, geom::Rect(0, 0, 1, 1), 1000.0).ok());
  int callbacks = 0;
  fabricator->SetViolationCallback(
      [&callbacks](ops::AttributeId attribute, const geom::CellIndex& cell,
                   const ops::FlattenBatchReport& report) {
        EXPECT_EQ(attribute, kRain);
        EXPECT_EQ(cell, (geom::CellIndex{0, 0}));
        EXPECT_GT(report.violation_percent, 50.0);
        ++callbacks;
      });
  ops::TupleBatch batch;
  Rng rng(73);
  for (int i = 0; i < 64; ++i) {
    batch.Append(TupleAt(i * 0.1, rng.Uniform(0.0, 1.0),
                            rng.Uniform(0.0, 1.0), kRain));
  }
  ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());
  EXPECT_GT(callbacks, 0);
}

TEST(FabricatorTest, GetStreamAndQueryCellsValidateIds) {
  auto fabricator = MakeFabricator();
  EXPECT_EQ(fabricator->GetStream(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fabricator->QueryCells(42).status().code(),
            StatusCode::kNotFound);
}

TEST(FabricatorTest, Figure2ScenarioTopologyShape) {
  // The paper's worked example: 3x3 grid; Q1<rain> on R1, Q2<temp> on R2,
  // Q3<temp> on R3, with lambda1 > lambda2 > lambda3. R1 and R2 perfectly
  // overlap grid cells, R3 partially overlaps.
  auto fabricator = MakeFabricator();
  const geom::Rect r1(1, 1, 3, 3);     // 4 cells, top-right block
  const geom::Rect r2(0, 0, 2, 1);     // 2 cells, bottom strip
  const geom::Rect r3(0, 1, 1.5, 2.5); // partial: cells (0,1),(0,2),(1,1),(1,2)
  const auto q1 = fabricator->InsertQuery(kRain, r1, 12.0);
  const auto q2 = fabricator->InsertQuery(kTemp, r2, 8.0);
  const auto q3 = fabricator->InsertQuery(kTemp, r3, 4.0);
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());

  // Q1 and Q2 perfectly overlap cells: no P operators for them. Q3 carves
  // partial cells: P operators appear.
  std::size_t partitions = 0;
  std::size_t flattens = 0;
  std::size_t unions = 0;
  fabricator->VisitOperators([&](const ops::Operator& op) {
    switch (op.kind()) {
      case ops::OperatorKind::kPartition:
        ++partitions;
        break;
      case ops::OperatorKind::kFlatten:
        ++flattens;
        break;
      case ops::OperatorKind::kUnion:
        ++unions;
        break;
      default:
        break;
    }
  });
  // Q3's region: x in [0,1.5] covers cell column 0 fully (width 1) and
  // half of column 1; y in [1,2.5] covers row 1 fully and half of row 2.
  // Partial overlaps: (0,2) half, (1,1) half, (1,2) quarter -> 3 P ops.
  EXPECT_EQ(partitions, 3u);
  // One F per (cell, attribute) chain: Q1 touches 4 rain cells; Q2 2 temp
  // cells; Q3 4 temp cells, none shared with Q2 -> 4 + 2 + 4 = 10.
  EXPECT_EQ(flattens, 10u);
  // Each multi-cell query gets one U merge.
  EXPECT_EQ(unions, 3u);
  EXPECT_EQ(fabricator->NumMaterializedCells(), 8u);
}

// ---------------------------------------------------------------------------
// Per-row fallback router: more live attributes than the LUT's slot scan

/// What one run of the attribute workload delivered, per query slot.
struct AttributeRun {
  std::vector<std::vector<ops::Tuple>> delivered;
  std::uint64_t route_rebuilds = 0;
  std::uint64_t tuples_routed = 0;
};

/// 16 standing queries on attributes 0..15 (whole-grid U merges, single
/// cells, partial carve-outs), one removed and one inserted mid-run, fed
/// 12 steps of tuples over attributes 0..17 and positions beyond the
/// grid. With `seventeenth`, a query on attribute 16 is live from the
/// start: 17 live attributes exceed the LUT's slot scan, so every batch
/// routes through the per-row fallback.
void RunAttributeWorkload(ops::FlattenMode mode, bool seventeenth,
                          AttributeRun* run) {
  FabricConfig config;
  config.flatten_mode = mode;
  config.flatten_batch_size = 16;
  auto fabricator = MakeFabricator(config);
  if (seventeenth) {
    EXPECT_TRUE(fabricator->InsertQuery(16, geom::Rect(0, 0, 3, 3), 1.0).ok());
  }
  const geom::Rect regions[4] = {geom::Rect(0, 0, 3, 3),
                                 geom::Rect(1, 1, 2, 2),
                                 geom::Rect(0.5, 0.5, 2.5, 2.0),
                                 geom::Rect(0, 0, 2, 3)};
  std::vector<QueryStream> streams;
  for (ops::AttributeId a = 0; a < 16; ++a) {
    const auto stream =
        fabricator->InsertQuery(a, regions[a % 4], 0.5 + 0.25 * (a % 3));
    EXPECT_TRUE(stream.ok());
    streams.push_back(*stream);
  }
  run->delivered.resize(streams.size() + 1);
  Rng rng(404);
  std::uint64_t id = 1;
  for (int step = 0; step < 12; ++step) {
    if (step == 4) {
      // Churn: attribute 1 leaves its single cell for a three-cell strip.
      run->delivered[1] = streams[1].sink->tuples();
      ASSERT_TRUE(fabricator->RemoveQuery(streams[1].id).ok());
      const auto moved = fabricator->InsertQuery(1, geom::Rect(0, 0, 1, 3), 1.0);
      ASSERT_TRUE(moved.ok());
      streams[1] = *moved;
      streams.push_back(*moved);
    }
    ops::TupleBatch batch;
    for (int i = 0; i < 720; ++i) {
      ops::Tuple tuple = TupleAt(step + i / 720.0, rng.Uniform(-0.2, 3.2),
                                 rng.Uniform(-0.2, 3.2),
                                 static_cast<ops::AttributeId>(i % 18));
      tuple.id = id++;
      tuple.value = ops::PayloadRef::Double(rng.Uniform(0.0, 30.0));
      batch.Append(tuple);
    }
    ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());
  }
  for (std::size_t k = 0; k < streams.size(); ++k) {
    if (k != 1) {
      run->delivered[k] = streams[k].sink->tuples();
    }
  }
  run->route_rebuilds = fabricator->route_rebuilds();
  run->tuples_routed = fabricator->tuples_routed();
  EXPECT_TRUE(fabricator->ValidateInvariants().ok());
}

TEST(FabricatorTest, FallbackRouterDeliversTheLutStreams) {
  for (const ops::FlattenMode mode :
       {ops::FlattenMode::kBatch, ops::FlattenMode::kOnline}) {
    SCOPED_TRACE(mode == ops::FlattenMode::kBatch ? "kBatch" : "kOnline");
    AttributeRun lut;
    AttributeRun fallback;
    RunAttributeWorkload(mode, false, &lut);
    RunAttributeWorkload(mode, true, &fallback);
    // The fallback re-enumerates its buckets after every chain insertion
    // (the LUT patches one slot instead), so it rebuilt at the churn.
    EXPECT_GT(fallback.route_rebuilds, lut.route_rebuilds);
    EXPECT_GT(fallback.tuples_routed, lut.tuples_routed);
    ASSERT_EQ(fallback.delivered.size(), lut.delivered.size());
    for (std::size_t k = 0; k < lut.delivered.size(); ++k) {
      SCOPED_TRACE("query slot " + std::to_string(k));
      const auto& want = lut.delivered[k];
      const auto& got = fallback.delivered[k];
      EXPECT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << i;
        EXPECT_EQ(got[i].attribute, want[i].attribute) << i;
        EXPECT_EQ(got[i].point, want[i].point) << i;
        EXPECT_TRUE(got[i].value == want[i].value) << i;
        EXPECT_EQ(got[i].sensor_id, want[i].sensor_id) << i;
      }
    }
  }
}

}  // namespace
}  // namespace fabric
}  // namespace craqr
