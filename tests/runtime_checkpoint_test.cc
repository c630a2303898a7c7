#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "fabric/fabricator.h"
#include "runtime/faultpoint.h"
#include "runtime/sharded_fabricator.h"

namespace craqr {
namespace runtime {
namespace {

constexpr ops::AttributeId kRain = 0;
constexpr ops::AttributeId kTemp = 1;

geom::Grid TestGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue();
}

fabric::FabricConfig TestFabricConfig() {
  fabric::FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = 0xC0FFEE;
  return config;
}

/// Deterministic batch of `n` tuples spread over the grid, with times
/// advancing from *t (monotone across batches, as the handler produces).
ops::TupleBatch MakeBatch(Rng* rng, double* t, std::size_t n,
                          std::uint64_t first_id) {
  ops::TupleBatch batch;
  batch.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple tuple;
    tuple.id = first_id + i;
    tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
    *t += 0.002;
    tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                       rng->Uniform(0.0, 4.0)};
    batch.Append(tuple);
  }
  return batch;
}

/// Order-sensitive FNV-1a fold over delivered tuples' identity fields —
/// the pin used by every byte-exactness test in this file.
std::uint64_t TupleDigest(const std::vector<ops::Tuple>& tuples) {
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

std::vector<std::uint64_t> DeliveredIds(ShardedFabricator* fab,
                                        query::QueryId id) {
  std::vector<std::uint64_t> ids;
  const auto stream = fab->GetStream(id);
  EXPECT_TRUE(stream.ok());
  if (stream.ok()) {
    for (const auto& tuple : stream->sink->tuples()) {
      ids.push_back(tuple.id);
    }
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Direct fabricator SaveState/RestoreState round trip. Three partial
// queries cover the operator-kind zoo: a full-region rain query (U over
// every cell, T chains, F estimators), a nested rain query (shared-prefix
// carve-out when sharing is on), and a temp query (independent attribute
// chains). The pin: after restoring onto a fresh fabricator, feeding both
// the identical remaining workload produces byte-identical deliveries —
// i.e. the snapshot captured every RNG phase and partial F buffer.

struct RoundTripVariant {
  const char* name;
  ops::FlattenMode mode;
  bool sharing;
};

void RunFabricatorRoundTrip(const RoundTripVariant& variant) {
  SCOPED_TRACE(variant.name);
  const geom::Grid grid = TestGrid();
  fabric::FabricConfig config = TestFabricConfig();
  config.flatten_mode = variant.mode;
  config.enable_sharing = variant.sharing;

  auto original = fabric::StreamFabricator::Make(grid, config).MoveValue();

  // slot -> tuples delivered since the last Clear (keyed by insertion
  // order, not query id, so the two fabricators compare by position).
  std::vector<std::vector<ops::Tuple>> delivered(3);
  std::vector<query::QueryId> snapshot_ids;
  const struct {
    ops::AttributeId attribute;
    geom::Rect region;
    double rate;
  } specs[] = {
      {kRain, geom::Rect(0, 0, 4, 4), 6.0},
      {kRain, geom::Rect(1, 1, 3, 3), 3.0},
      {kTemp, geom::Rect(0, 0, 2, 4), 4.0},
  };
  for (std::size_t slot = 0; slot < 3; ++slot) {
    const auto overlaps = grid.Overlaps(specs[slot].region);
    ASSERT_TRUE(overlaps.ok());
    auto* out = &delivered[slot];
    const auto q = original->InsertQueryPartial(
        specs[slot].attribute, specs[slot].region, specs[slot].rate,
        *overlaps, [out](const ops::TupleBatch& batch) {
          for (const auto& tuple : batch.ToTuples()) {
            out->push_back(tuple);
          }
        });
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    snapshot_ids.push_back(q->id);
  }

  // One deterministic tuple tape; the prefix warms the original (partial
  // F batches mid-fill, RNG phases advanced), the suffix is the
  // post-restore comparison workload.
  Rng rng(424242);
  double t = 0.0;
  std::uint64_t next_id = 1;
  std::vector<ops::TupleBatch> tape;
  for (std::size_t b = 0; b < 11; ++b) {
    tape.push_back(MakeBatch(&rng, &t, 96, next_id));
    next_id += tape.back().size();
  }
  for (std::size_t b = 0; b < 6; ++b) {
    ASSERT_TRUE(original->ProcessBatch(tape[b]).ok());
  }

  std::string blob;
  ASSERT_TRUE(original->SaveState(&blob).ok());
  ASSERT_FALSE(blob.empty());

  // Restore onto a fresh fabricator; the factory wires each snapshot
  // query to the slot its original occupied.
  auto restored = fabric::StreamFabricator::Make(grid, config).MoveValue();
  std::vector<std::vector<ops::Tuple>> redelivered(3);
  std::unordered_map<query::QueryId, query::QueryId> id_map;
  const Status restore = restored->RestoreState(
      blob,
      [&snapshot_ids, &redelivered](query::QueryId snapshot_local_id)
          -> ops::SinkOperator::BatchCallback {
        for (std::size_t slot = 0; slot < snapshot_ids.size(); ++slot) {
          if (snapshot_ids[slot] == snapshot_local_id) {
            auto* out = &redelivered[slot];
            return [out](const ops::TupleBatch& batch) {
              for (const auto& tuple : batch.ToTuples()) {
                out->push_back(tuple);
              }
            };
          }
        }
        return nullptr;
      },
      &id_map);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  EXPECT_EQ(id_map.size(), 3u);
  ASSERT_TRUE(restored->ValidateInvariants().ok());

  // Same suffix through both; only post-snapshot deliveries compare.
  for (auto& slot : delivered) {
    slot.clear();
  }
  for (std::size_t b = 6; b < tape.size(); ++b) {
    ops::TupleBatch copy;
    copy.CopyFrom(tape[b]);
    ASSERT_TRUE(original->ProcessBatch(copy).ok());
    ASSERT_TRUE(restored->ProcessBatch(tape[b]).ok());
  }
  std::uint64_t total = 0;
  for (std::size_t slot = 0; slot < 3; ++slot) {
    SCOPED_TRACE("slot=" + std::to_string(slot));
    EXPECT_EQ(TupleDigest(delivered[slot]), TupleDigest(redelivered[slot]));
    EXPECT_EQ(delivered[slot].size(), redelivered[slot].size());
    total += delivered[slot].size();
  }
  EXPECT_GT(total, 0u) << "suffix delivered nothing; round trip is vacuous";
}

TEST(FabricatorCheckpointTest, RoundTripIsByteExactPerOperatorKind) {
  const RoundTripVariant variants[] = {
      {"batch_mle_shared", ops::FlattenMode::kBatch, true},
      {"batch_mle_unshared", ops::FlattenMode::kBatch, false},
      {"online_sgd_shared", ops::FlattenMode::kOnline, true},
  };
  for (const auto& variant : variants) {
    RunFabricatorRoundTrip(variant);
  }
}

// ---------------------------------------------------------------------------
// Runtime-level crash recovery: kill every shard in turn mid-workload and
// pin the delivered streams (content AND order) against a twin that never
// crashed.

ShardedConfig CheckpointedConfig(std::size_t num_shards) {
  ShardedConfig config;
  config.num_shards = num_shards;
  config.fabric = TestFabricConfig();
  config.checkpoint.enabled = true;
  return config;
}

/// Inserts the standard three-query topology into `fab`.
void InsertQueries(ShardedFabricator* fab,
                   std::vector<query::QueryId>* ids) {
  const auto q1 = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0);
  const auto q2 = fab->InsertQuery(kRain, geom::Rect(1, 1, 3, 3), 3.0);
  const auto q3 = fab->InsertQuery(kTemp, geom::Rect(0, 0, 2, 4), 4.0);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(q3.ok());
  ids->assign({q1->id, q2->id, q3->id});
}

TEST(RuntimeCheckpointTest, CrashingEveryShardInTurnIsByteExact) {
  const std::uint64_t crashes_before =
      obs::GetCounter("craqr.fault.shard_crashes")->value();
  std::uint64_t crashes_injected = 0;
  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    const geom::Grid grid = TestGrid();
    auto crashy =
        ShardedFabricator::Make(grid, CheckpointedConfig(shards)).MoveValue();
    ShardedConfig plain = CheckpointedConfig(shards);
    plain.checkpoint.enabled = false;
    auto twin = ShardedFabricator::Make(grid, plain).MoveValue();
    EXPECT_TRUE(crashy->HasCheckpoint());
    EXPECT_FALSE(twin->HasCheckpoint());

    std::vector<query::QueryId> crashy_ids, twin_ids;
    InsertQueries(crashy.get(), &crashy_ids);
    InsertQueries(twin.get(), &twin_ids);

    Rng rng_a(7), rng_b(7);
    double t_a = 0.0, t_b = 0.0;
    std::uint64_t id_a = 1, id_b = 1;
    auto pump = [&](std::size_t batches) {
      for (std::size_t b = 0; b < batches; ++b) {
        auto a = MakeBatch(&rng_a, &t_a, 96, id_a);
        auto c = MakeBatch(&rng_b, &t_b, 96, id_b);
        id_a += a.size();
        id_b += c.size();
        ASSERT_TRUE(crashy->ProcessBatch(a).ok());
        ASSERT_TRUE(twin->ProcessBatch(c).ok());
      }
    };

    pump(4);
    // Kill each shard in turn, with live traffic between the failures —
    // every crash restores from the checkpoint and replays the epochs
    // enqueued since it.
    for (std::size_t victim = 0; victim < shards; ++victim) {
      const Status crash = crashy->InjectShardCrash(victim);
      ASSERT_TRUE(crash.ok()) << crash.ToString();
      ++crashes_injected;
      pump(2);
    }
    ASSERT_TRUE(crashy->ValidateInvariants().ok());
    ASSERT_TRUE(crashy->Drain().ok());
    ASSERT_TRUE(twin->Drain().ok());
    for (std::size_t i = 0; i < crashy_ids.size(); ++i) {
      SCOPED_TRACE("query_slot=" + std::to_string(i));
      const auto ids = DeliveredIds(crashy.get(), crashy_ids[i]);
      EXPECT_FALSE(ids.empty());
      EXPECT_EQ(ids, DeliveredIds(twin.get(), twin_ids[i]));
    }
  }
  EXPECT_EQ(obs::GetCounter("craqr.fault.shard_crashes")->value(),
            crashes_before + crashes_injected);
}

TEST(RuntimeCheckpointTest, RepeatedCrashOfTheSameShardStaysExact) {
  // The replay log survives a restore, so a shard may fail repeatedly
  // between two checkpoints and still recover byte-exactly each time.
  // Query churn first (remove + re-insert) leaves gaps in the shard-local
  // id space, so the snapshot -> restored id translation is NOT the
  // identity — the regression the fault soak first caught: a second crash
  // must resolve attachments through the checkpoint's snapshot ids, not
  // through the previous restore's.
  const geom::Grid grid = TestGrid();
  auto crashy =
      ShardedFabricator::Make(grid, CheckpointedConfig(2)).MoveValue();
  ShardedConfig plain = CheckpointedConfig(2);
  plain.checkpoint.enabled = false;
  auto twin = ShardedFabricator::Make(grid, plain).MoveValue();
  std::vector<query::QueryId> crashy_ids, twin_ids;
  InsertQueries(crashy.get(), &crashy_ids);
  InsertQueries(twin.get(), &twin_ids);
  ASSERT_TRUE(crashy->RemoveQuery(crashy_ids[1]).ok());
  ASSERT_TRUE(twin->RemoveQuery(twin_ids[1]).ok());
  const auto q4 = crashy->InsertQuery(kRain, geom::Rect(0, 0, 2, 2), 5.0);
  const auto p4 = twin->InsertQuery(kRain, geom::Rect(0, 0, 2, 2), 5.0);
  ASSERT_TRUE(q4.ok());
  ASSERT_TRUE(p4.ok());
  crashy_ids[1] = q4->id;
  twin_ids[1] = p4->id;

  Rng rng_a(11), rng_b(11);
  double t_a = 0.0, t_b = 0.0;
  std::uint64_t id_a = 1, id_b = 1;
  for (std::size_t round = 0; round < 6; ++round) {
    auto a = MakeBatch(&rng_a, &t_a, 64, id_a);
    auto b = MakeBatch(&rng_b, &t_b, 64, id_b);
    id_a += a.size();
    id_b += b.size();
    ASSERT_TRUE(crashy->ProcessBatch(a).ok());
    ASSERT_TRUE(twin->ProcessBatch(b).ok());
    ASSERT_TRUE(crashy->InjectShardCrash(0).ok());
    if (round == 3) {
      ASSERT_TRUE(crashy->Checkpoint().ok());  // resets the replay logs
    }
  }
  ASSERT_TRUE(crashy->Drain().ok());
  ASSERT_TRUE(twin->Drain().ok());
  for (std::size_t i = 0; i < crashy_ids.size(); ++i) {
    EXPECT_EQ(DeliveredIds(crashy.get(), crashy_ids[i]),
              DeliveredIds(twin.get(), twin_ids[i]));
  }
}

TEST(RuntimeCheckpointTest, FileRoundTripThenCrashRecovers) {
  const geom::Grid grid = TestGrid();
  auto crashy =
      ShardedFabricator::Make(grid, CheckpointedConfig(2)).MoveValue();
  ShardedConfig plain = CheckpointedConfig(2);
  plain.checkpoint.enabled = false;
  auto twin = ShardedFabricator::Make(grid, plain).MoveValue();
  std::vector<query::QueryId> crashy_ids, twin_ids;
  InsertQueries(crashy.get(), &crashy_ids);
  InsertQueries(twin.get(), &twin_ids);

  Rng rng_a(23), rng_b(23);
  double t_a = 0.0, t_b = 0.0;
  std::uint64_t id_a = 1, id_b = 1;
  auto pump = [&](std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      auto a = MakeBatch(&rng_a, &t_a, 96, id_a);
      auto c = MakeBatch(&rng_b, &t_b, 96, id_b);
      id_a += a.size();
      id_b += c.size();
      ASSERT_TRUE(crashy->ProcessBatch(a).ok());
      ASSERT_TRUE(twin->ProcessBatch(c).ok());
    }
  };

  pump(3);
  ASSERT_TRUE(crashy->Checkpoint().ok());
  const std::string path = ::testing::TempDir() + "craqr_checkpoint.bin";
  ASSERT_TRUE(crashy->SaveCheckpointToFile(path).ok());
  const std::uint64_t saved_epoch = crashy->CheckpointEpoch();

  // Reload the file over the in-memory snapshot (same epoch, so the
  // replay-log reset loses nothing), keep pumping, then crash both
  // shards: recovery must restore from the *loaded* state.
  ASSERT_TRUE(crashy->LoadCheckpointFromFile(path).ok());
  EXPECT_EQ(crashy->CheckpointEpoch(), saved_epoch);
  pump(3);
  ASSERT_TRUE(crashy->InjectShardCrash(0).ok());
  ASSERT_TRUE(crashy->InjectShardCrash(1).ok());
  pump(2);
  ASSERT_TRUE(crashy->Drain().ok());
  ASSERT_TRUE(twin->Drain().ok());
  for (std::size_t i = 0; i < crashy_ids.size(); ++i) {
    EXPECT_EQ(DeliveredIds(crashy.get(), crashy_ids[i]),
              DeliveredIds(twin.get(), twin_ids[i]));
  }
  std::remove(path.c_str());
  EXPECT_EQ(crashy->LoadCheckpointFromFile(path).code(),
            StatusCode::kNotFound);
}

TEST(RuntimeCheckpointTest, RequiresEnableFlag) {
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  EXPECT_FALSE(fab->HasCheckpoint());
  EXPECT_EQ(fab->Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fab->InjectShardCrash(0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RuntimeCheckpointTest, TruncatedReplayLogBlocksRecovery) {
  ShardedConfig config = CheckpointedConfig(2);
  config.checkpoint.replay_limit_epochs = 2;
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  std::vector<query::QueryId> ids;
  InsertQueries(fab.get(), &ids);
  EXPECT_EQ(fab->InjectShardCrash(99).code(), StatusCode::kInvalidArgument);

  const std::uint64_t truncated_before =
      obs::GetCounter("craqr.fault.replaylog_truncated")->value();
  Rng rng(31);
  double t = 0.0;
  std::uint64_t next_id = 1;
  for (std::size_t b = 0; b < 6; ++b) {
    auto batch = MakeBatch(&rng, &t, 96, next_id);
    next_id += batch.size();
    ASSERT_TRUE(fab->ProcessBatch(batch).ok());
  }
  // 6 epochs through a 2-epoch replay log: the oldest entries dropped, so
  // byte-exact recovery is refused...
  EXPECT_GT(obs::GetCounter("craqr.fault.replaylog_truncated")->value(),
            truncated_before);
  EXPECT_EQ(fab->InjectShardCrash(0).code(),
            StatusCode::kFailedPrecondition);
  // ...until a fresh checkpoint re-anchors the log.
  ASSERT_TRUE(fab->Checkpoint().ok());
  EXPECT_TRUE(fab->InjectShardCrash(0).ok());
}

// ---------------------------------------------------------------------------
// Engine-level pin: the full closed-loop engine (incentives, budget tuner,
// periodic checkpoints, multi-query sharing) with shard crashes injected
// at epoch boundaries mid-churn must deliver the exact byte streams of the
// unsharded, never-crashed engine.

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
  std::uint64_t temp_digest = 0;
  std::uint64_t tuples_routed = 0;
  std::uint64_t incentive_raises = 0;

  bool SameStreams(const EngineRunResult& o) const {
    return rain_digest == o.rain_digest && temp_digest == o.temp_digest &&
           tuples_routed == o.tuples_routed &&
           incentive_raises == o.incentive_raises;
  }
};

/// A churn workload (hot-corner rain query, temp query cancelled and
/// replaced mid-run, incentive loop live throughout), with
/// periodic checkpoints and — when `crashes` — the "runtime.shard_crash"
/// fault point armed on an explicit epoch schedule.
void RunCrashChurnEngine(std::size_t num_shards, std::size_t pipeline_depth,
                         bool crashes, EngineRunResult* out) {
  engine::EngineConfig config;
  config.grid_h = 9;
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 32;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 32.0;
  config.enable_incentives = true;
  config.incentive.max = 8.0;
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  if (num_shards > 1) {
    config.checkpoint_every_steps = 3;
  }
  if (crashes) {
    FaultSpec spec;
    spec.at_hits = {7, 19, 26};  // epoch-boundary hits, spread over the run
    spec.param = 1;              // victim = 1 % num_shards
    FaultRegistry::Global().Arm("runtime.shard_crash", spec);
  }
  auto made = engine::CraqrEngine::Make(MakeEngineWorld(80), config);
  ASSERT_TRUE(made.ok());
  auto engine = made.MoveValue();
  const auto rain = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 2, 2) RATE 20 PER KM2 PER MIN");
  const auto temp1 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.5 PER KM2 PER MIN");
  ASSERT_TRUE(rain.ok());
  ASSERT_TRUE(temp1.ok());
  ASSERT_TRUE(engine->RunFor(12.0).ok());
  ASSERT_TRUE(engine->Cancel(temp1->id).ok());
  ASSERT_TRUE(engine->RunFor(8.0).ok());
  const auto temp2 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(1, 1, 5, 5) RATE 0.4 PER KM2 PER MIN");
  ASSERT_TRUE(temp2.ok());
  ASSERT_TRUE(engine->RunFor(12.0).ok());
  if (crashes) {
    EXPECT_GT(FaultRegistry::Global().fires("runtime.shard_crash"), 0u)
        << "crash schedule never fired; the recovery pin is vacuous";
    FaultRegistry::Global().Reset();
  }

  const ShardedStats stats = engine->Stats();
  out->rain_digest = TupleDigest(rain->sink->tuples());
  out->temp_digest = TupleDigest(temp2->sink->tuples());
  out->tuples_routed = stats.tuples_routed;
  out->incentive_raises = engine->incentives().raises();
}

TEST(EngineCrashRecoveryTest, KillShardMidChurnStaysByteExact) {
  const std::uint64_t crashes_before =
      obs::GetCounter("craqr.fault.shard_crashes")->value();
  for (const std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
    EngineRunResult reference;
    RunCrashChurnEngine(1, depth, /*crashes=*/false, &reference);
    ASSERT_NE(reference.rain_digest, 0u);
    ASSERT_GT(reference.incentive_raises, 0u) << "incentives never engaged";
    for (const std::size_t shards : {2u, 4u}) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards));
      EngineRunResult crashed;
      RunCrashChurnEngine(shards, depth, /*crashes=*/true, &crashed);
      EXPECT_TRUE(reference.SameStreams(crashed));
    }
  }
  EXPECT_GT(obs::GetCounter("craqr.fault.shard_crashes")->value(),
            crashes_before);
}

}  // namespace
}  // namespace runtime
}  // namespace craqr
