/// \file fabric_sharing_test.cc
/// \brief Multi-query subplan sharing: byte-exactness, ref-count
/// conservation, and route-LUT maintenance.
///
/// Sharing (FabricConfig::enable_sharing) is a pure execution-plan
/// optimization: it dedups identical partial-cell carve-outs behind one
/// ref-counted P stage and must never change a delivered byte. These
/// tests pin that contract at every layer — engine digests sharing on vs
/// off across shard counts and pipeline depths (with churn and the
/// incentive loop engaged), the sharded sharing-on streams against the
/// one-shard run (the TSan CI job races this), carve-out ref counts
/// through cancellation, and survivor streams through a mid-run cancel of
/// a shared query.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "runtime/sharded_fabricator.h"
#include "sensing/phenomena.h"
#include "sensing/population.h"
#include "sensing/world.h"

namespace craqr {
namespace fabric {
namespace {

constexpr ops::AttributeId kAttr = 0;

geom::Grid SharingGrid() {
  // 3x3 cells of edge 2 over a 6x6 region: partial-cell regions are easy
  // to place while staying above the one-cell minimum query area.
  return geom::Grid::Make(geom::Rect(0, 0, 6, 6), 9).MoveValue();
}

FabricConfig SharingConfig(bool sharing) {
  FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = 0x5A4E;
  config.enable_sharing = sharing;
  return config;
}

/// Deterministic synthetic batches, dense ids, monotone time.
std::vector<std::vector<ops::Tuple>> MakeBatches(std::size_t num_batches,
                                                 std::size_t batch_size,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  double t = 0.0;
  std::uint64_t id = 1;
  std::vector<std::vector<ops::Tuple>> out;
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<ops::Tuple> batch;
    for (std::size_t i = 0; i < batch_size; ++i) {
      ops::Tuple tuple;
      tuple.id = id++;
      tuple.attribute = kAttr;
      t += 0.002;
      tuple.point = geom::SpaceTimePoint{t, rng.Uniform(0.0, 6.0),
                                         rng.Uniform(0.0, 6.0)};
      batch.push_back(tuple);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

/// Processes a copy of `tuples` as one batch (recorded batches are
/// replayed into several fabricators).
template <typename Fab>
Status ProcessCopy(Fab* fab, const std::vector<ops::Tuple>& tuples) {
  ops::TupleBatch batch(tuples);
  return fab->ProcessBatch(batch);
}

/// Order-sensitive FNV-1a fold over the delivered tuples' identity fields
/// (same fold as runtime_checkpoint_test.cc).
std::uint64_t StreamDigest(const std::vector<ops::Tuple>& tuples) {
  std::uint64_t h = 14695981039346656037ULL;
  auto fold = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& tuple : tuples) {
    fold(&tuple.id, sizeof(tuple.id));
    fold(&tuple.attribute, sizeof(tuple.attribute));
    fold(&tuple.point.t, sizeof(tuple.point.t));
    fold(&tuple.point.x, sizeof(tuple.point.x));
    fold(&tuple.point.y, sizeof(tuple.point.y));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Ref-count conservation: N sharers tap one carve-out; each cancel detaches
// only that query's suffix, and the stage itself dies with its last sharer.

TEST(FabricSharingTest, RefCountConservationOnCancel) {
  auto fab = StreamFabricator::Make(SharingGrid(), SharingConfig(true))
                 .MoveValue();
  // Identical partial-cell region and rate: the maximal sharing shape.
  const geom::Rect region(0.5, 0.5, 3.0, 2.2);
  std::vector<query::QueryId> sharers;
  for (int i = 0; i < 4; ++i) {
    auto stream = fab->InsertQuery(kAttr, region, 4.0);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    sharers.push_back(stream->id);
    ASSERT_TRUE(fab->ValidateInvariants().ok());
  }
  EXPECT_GT(fab->shared_prefix_hits(), 0u);
  const std::size_t shared_at_peak = fab->SharedStagesLive();
  EXPECT_GT(shared_at_peak, 0u);

  // The census attributes every shared stage to a flat cell.
  std::size_t census_total = 0;
  for (const auto& [cell, count] : fab->SharedStageCensus()) {
    (void)cell;
    census_total += count;
  }
  EXPECT_EQ(census_total, shared_at_peak);

  const auto batches = MakeBatches(8, 64, 0x10DE);
  ASSERT_TRUE(ProcessCopy(fab.get(), batches[0]).ok());

  // Cancel sharers one at a time: invariants (including splitter fan-out
  // == ref count) hold at every intermediate population, detach events
  // are counted, and the stage survives until its last sharer leaves.
  std::uint64_t detached_before = fab->taps_detached();
  for (std::size_t i = 0; i < sharers.size(); ++i) {
    ASSERT_TRUE(fab->RemoveQuery(sharers[i]).ok());
    ASSERT_TRUE(fab->ValidateInvariants().ok());
    EXPECT_GT(fab->taps_detached(), detached_before);
    detached_before = fab->taps_detached();
    if (i + 1 < sharers.size()) {
      ASSERT_TRUE(ProcessCopy(fab.get(), batches[i + 1]).ok());
    }
  }
  EXPECT_EQ(fab->SharedStagesLive(), 0u);
  EXPECT_TRUE(fab->SharedStageCensus().empty());
}

// ---------------------------------------------------------------------------
// Mid-run cancel of a shared query: the survivors' streams must match the
// sharing-off execution byte for byte, before and after the detach.

TEST(FabricSharingTest, CancelSharedMidRunKeepsSurvivorsByteExact) {
  const auto batches = MakeBatches(24, 96, 0xFEED);
  const geom::Rect shared_region(0.5, 0.5, 3.0, 2.2);
  const geom::Rect lone_region(2.5, 3.0, 5.5, 5.0);

  auto run = [&](bool sharing) {
    auto fab = StreamFabricator::Make(SharingGrid(), SharingConfig(sharing))
                   .MoveValue();
    std::vector<QueryStream> shared_streams;
    for (int i = 0; i < 3; ++i) {
      shared_streams.push_back(
          fab->InsertQuery(kAttr, shared_region, 4.0).MoveValue());
    }
    QueryStream lone = fab->InsertQuery(kAttr, lone_region, 2.0).MoveValue();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (b == batches.size() / 2) {
        // Cancel one sharer mid-run; the remaining two keep the stage.
        EXPECT_TRUE(fab->RemoveQuery(shared_streams[1].id).ok());
        EXPECT_TRUE(fab->ValidateInvariants().ok());
      }
      EXPECT_TRUE(ProcessCopy(fab.get(), batches[b]).ok());
    }
    std::vector<std::uint64_t> digests;
    digests.push_back(StreamDigest(shared_streams[0].sink->tuples()));
    digests.push_back(StreamDigest(shared_streams[2].sink->tuples()));
    digests.push_back(StreamDigest(lone.sink->tuples()));
    digests.push_back(fab->tuples_routed());
    return digests;
  };

  const auto with_sharing = run(true);
  const auto without_sharing = run(false);
  EXPECT_EQ(with_sharing, without_sharing);
  EXPECT_NE(with_sharing[0], StreamDigest({}));  // streams are non-empty
}

// ---------------------------------------------------------------------------
// Route-LUT maintenance: churn patches touched slots instead of rebuilding
// the whole rows x cols table; a new attribute slot forces the full
// fallback.

TEST(FabricSharingTest, RouteLutChurnPatchesInsteadOfRebuilding) {
  auto fab = StreamFabricator::Make(SharingGrid(), SharingConfig(true))
                 .MoveValue();
  const auto batches = MakeBatches(64, 32, 0x10DE);
  std::size_t next_batch = 0;
  auto pump = [&] {
    ASSERT_TRUE(ProcessCopy(fab.get(), batches[next_batch]).ok());
    next_batch = (next_batch + 1) % batches.size();
  };
  ASSERT_TRUE(
      fab->InsertQuery(kAttr, geom::Rect(0.0, 0.0, 2.0, 2.0), 2.0).ok());
  pump();  // the lazy rebuild materializes the LUT at the next batch
  const std::uint64_t rebuilds_after_first = fab->route_rebuilds();
  ASSERT_GT(rebuilds_after_first, 0u);

  std::vector<query::QueryId> live;
  Rng rng(77);
  for (int step = 0; step < 40; ++step) {
    if (live.size() < 2 || rng.Bernoulli(0.5)) {
      const double x = rng.Uniform(0.0, 3.0);
      const double y = rng.Uniform(0.0, 3.0);
      auto stream = fab->InsertQuery(
          kAttr, geom::Rect(x, y, x + 2.2, y + 2.2), 2.0);
      ASSERT_TRUE(stream.ok());
      live.push_back(stream->id);
    } else {
      const std::size_t pick = rng.UniformInt(live.size());
      ASSERT_TRUE(fab->RemoveQuery(live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_TRUE(fab->ValidateInvariants().ok());
    pump();  // keep the table live between churn events
  }
  // Same-attribute churn runs on one-slot patches; full sweeps stay rare
  // (hole compaction only), far below one per churn event.
  EXPECT_GT(fab->route_patches(), 0u);
  EXPECT_LT(fab->route_rebuilds() - rebuilds_after_first, 10u);

  // A query on a never-seen attribute changes the attribute-slot set:
  // that is the documented full-rebuild fallback (applied at the next
  // batch, since the dirty table can't be patched).
  const std::uint64_t rebuilds_before_new_attr = fab->route_rebuilds();
  ASSERT_TRUE(
      fab->InsertQuery(kAttr + 1, geom::Rect(0.0, 0.0, 2.5, 2.5), 2.0).ok());
  pump();
  EXPECT_GT(fab->route_rebuilds(), rebuilds_before_new_attr);
  ASSERT_TRUE(fab->ValidateInvariants().ok());
}

// ---------------------------------------------------------------------------
// Engine-level pin: with churn and the order-sensitive incentive loop
// engaged, sharing on vs off delivers identical bytes at every shard
// count and pipeline depth.

sensing::CrowdWorld MakeEngineWorld(std::size_t sensors) {
  sensing::PopulationConfig pc;
  pc.region = geom::Rect(0, 0, 6, 6);
  pc.num_sensors = sensors;
  pc.responsiveness_sigma = 0.2;
  Rng rng(5);
  auto population = sensing::SensorPopulation::Make(pc, &rng);
  EXPECT_TRUE(population.ok());
  auto world =
      sensing::CrowdWorld::Make(population.MoveValue(), rng.Fork()).MoveValue();
  sensing::TemperatureField::Params tp;
  sensing::ResponseBehavior device = sensing::ResponseModel::DeviceBehavior();
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "temp", false,
                      sensing::TemperatureField::Make(tp).MoveValue(), device)
                  .ok());
  sensing::RainCell cell;
  cell.x0 = 0.0;
  cell.y0 = 0.0;
  cell.radius = 3.0;
  sensing::ResponseBehavior human = sensing::ResponseModel::HumanBehavior();
  human.base_logit = 2.0;
  human.delay_mu = -1.0;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "rain", true,
                      sensing::RainField::Make({cell}).MoveValue(), human)
                  .ok());
  return world;
}

struct EngineRunResult {
  std::uint64_t rain_digest = 0;
  std::uint64_t rain2_digest = 0;
  std::uint64_t temp_digest = 0;
  std::uint64_t tuples_routed = 0;
  std::uint64_t incentive_raises = 0;
  std::uint64_t shared_prefix_hits = 0;

  bool SameStreams(const EngineRunResult& o) const {
    return rain_digest == o.rain_digest && rain2_digest == o.rain2_digest &&
           temp_digest == o.temp_digest && tuples_routed == o.tuples_routed &&
           incentive_raises == o.incentive_raises;
  }
};

/// Churny sharing workload: two identical partial-cell rain queries (the
/// shared carve-out), a third sharer submitted and cancelled mid-run, and
/// a full-region temp query replaced mid-run.
void RunSharingEngine(std::size_t num_shards, std::size_t pipeline_depth,
                      bool sharing, EngineRunResult* out) {
  engine::EngineConfig config;
  config.grid_h = 9;
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 32;
  config.fabric.enable_sharing = sharing;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 32.0;
  config.enable_incentives = true;
  config.incentive.max = 8.0;
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  auto made = engine::CraqrEngine::Make(MakeEngineWorld(80), config);
  ASSERT_TRUE(made.ok());
  auto engine = made.MoveValue();
  // Identical region+rate+attribute: shared carve-outs in the boundary
  // cells (the 2.5-wide region is partial in its rightmost cells).
  const char* kSharedRain =
      "ACQUIRE rain FROM REGION(0, 0, 2.5, 2) RATE 20 PER KM2 PER MIN";
  const auto rain1 = engine->SubmitText(kSharedRain);
  const auto rain2 = engine->SubmitText(kSharedRain);
  const auto temp1 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.5 PER KM2 PER MIN");
  ASSERT_TRUE(rain1.ok());
  ASSERT_TRUE(rain2.ok());
  ASSERT_TRUE(temp1.ok());
  ASSERT_TRUE(engine->RunFor(10.0).ok());
  const auto rain3 = engine->SubmitText(kSharedRain);  // third sharer
  ASSERT_TRUE(rain3.ok());
  ASSERT_TRUE(engine->Cancel(temp1->id).ok());
  ASSERT_TRUE(engine->RunFor(8.0).ok());
  ASSERT_TRUE(engine->Cancel(rain3->id).ok());  // detach mid-run
  const auto temp2 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(1, 1, 5, 5) RATE 0.4 PER KM2 PER MIN");
  ASSERT_TRUE(temp2.ok());
  ASSERT_TRUE(engine->RunFor(10.0).ok());

  const runtime::ShardedStats stats = engine->Stats();
  out->rain_digest = StreamDigest(rain1->sink->tuples());
  out->rain2_digest = StreamDigest(rain2->sink->tuples());
  out->temp_digest = StreamDigest(temp2->sink->tuples());
  out->tuples_routed = stats.tuples_routed;
  out->incentive_raises = engine->incentives().raises();
  out->shared_prefix_hits = stats.shared_prefix_hits;
}

// Sharing on vs off must agree at every shard count and depth, and the
// sharded sharing-on runs must equal the one-shard one: shared carve-outs
// are built and torn down on several shard workers while batches flow
// (the TSan CI job races this).
TEST(FabricSharingEngineTest, ByteExactSharingOnVsOffAcrossShardsAndDepths) {
  for (const std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
    EngineRunResult one_shard;
    for (const std::size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards));
      EngineRunResult off;
      RunSharingEngine(shards, depth, /*sharing=*/false, &off);
      ASSERT_NE(off.rain_digest, 0u);
      ASSERT_GT(off.incentive_raises, 0u) << "incentives never engaged";
      EngineRunResult on;
      RunSharingEngine(shards, depth, /*sharing=*/true, &on);
      EXPECT_TRUE(off.SameStreams(on));
      // The pin is vacuous unless sharing actually engaged.
      EXPECT_GT(on.shared_prefix_hits, off.shared_prefix_hits);
      if (shards == 1) {
        one_shard = on;
      } else {
        EXPECT_TRUE(one_shard.SameStreams(on));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded runtime surfaces the sharing census.

TEST(FabricSharingTest, ShardedStatsCarrySharingCensus) {
  runtime::ShardedConfig config;
  config.num_shards = 2;
  config.fabric = SharingConfig(true);
  auto fab =
      runtime::ShardedFabricator::Make(SharingGrid(), config).MoveValue();
  const geom::Rect region(0.5, 0.5, 3.0, 2.2);
  std::vector<QueryStream> streams;
  for (int i = 0; i < 3; ++i) {
    streams.push_back(fab->InsertQuery(kAttr, region, 4.0).MoveValue());
  }
  const auto batches = MakeBatches(4, 64, 0xCAFE);
  for (const auto& batch : batches) {
    ASSERT_TRUE(ProcessCopy(fab.get(), batch).ok());
  }
  const auto stats = fab->TrySnapshot();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->shared_prefix_hits, 0u);
  EXPECT_GT(stats->stages_shared, 0u);
  std::size_t census_total = 0;
  for (const auto& [cell, count] : stats->shared_stage_census) {
    (void)cell;
    census_total += count;
  }
  EXPECT_EQ(census_total, stats->stages_shared);
  for (auto& stream : streams) {
    EXPECT_TRUE(fab->RemoveQuery(stream.id).ok());
  }
  const auto after = fab->TrySnapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stages_shared, 0u);
  EXPECT_GT(after->taps_detached, 0u);
}

}  // namespace
}  // namespace fabric
}  // namespace craqr
