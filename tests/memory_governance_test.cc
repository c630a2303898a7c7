#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ops/value_pool.h"
#include "runtime/faultpoint.h"
#include "runtime/memory_governor.h"
#include "runtime/sharded_fabricator.h"
#include "workload_gen.h"

/// \file memory_governance_test.cc
/// \brief Bounded-memory endurance pins: generational ValuePool semantics,
/// ApproxBytes accounting, the workload-gen unique-string flood bounded
/// under governance vs linear without, checkpoint/restore spanning a
/// generation retirement, digest equivalence governance on vs off, and
/// graceful degradation under forced hard pressure.

namespace craqr {
namespace runtime {
namespace {

constexpr ops::AttributeId kRain = 0;
constexpr ops::AttributeId kTemp = 1;

geom::Grid TestGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue();
}

/// A 48-byte-ish unique string: long enough to defeat SSO so every flood
/// entry costs real heap bytes.
std::string UniqueString(std::uint64_t n) {
  return "flood-" + std::to_string(n) + "-payload-xxxxxxxxxxxxxxxxxxxxxxxx";
}

/// Order-sensitive FNV-1a digest over a delivered stream, folding string
/// payloads *by value* through `pool` so two runtimes with different
/// handle layouts (e.g. governance on vs off) compare content-equal.
std::uint64_t ValueDigest(const std::vector<ops::Tuple>& tuples,
                          const ops::ValuePool& pool) {
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
    if (tuple.value.kind() == ops::PayloadKind::kString) {
      const std::string& s = tuple.value.AsString(pool);  // throws if the
      fold(s.data(), s.size());  // handle's generation was retired unsafely
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Satellite (a): ApproxBytes must charge the dedup index's node and bucket
// overhead and the deque block overhead, not just string payload bytes.

TEST(ValuePoolApproxBytesTest, TracksIndexAndContainerOverhead) {
  ops::ValuePool pool;
  const std::size_t n = 1000;
  std::size_t payload = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = UniqueString(i);
    ASSERT_GT(s.size(), sizeof(std::string));  // heap-allocated, not SSO
    payload += s.size();
    pool.Intern(s);
  }
  const std::size_t bytes = pool.ApproxBytes();
  // Lower bound: payload + per-entry string control block + per-entry
  // index node (bucket pointer + cached hash + key/value pair). The old
  // accounting (payload + control block only) sits below this band.
  const std::size_t per_entry_overhead =
      sizeof(std::string) + sizeof(void*) + sizeof(std::size_t) +
      sizeof(std::pair<std::string_view, ops::ValueId>);
  EXPECT_GE(bytes, payload + n * per_entry_overhead);
  // Generous upper bound: the estimate must stay the same order of
  // magnitude as the real footprint, not balloon.
  EXPECT_LE(bytes, 2 * payload + n * 256);
}

// ---------------------------------------------------------------------------
// Generational semantics: promotion on second sight, wholesale reclamation
// of one-shot strings, retired handles fail loudly.

TEST(ValuePoolGenerationsTest, PromotionSurvivesRetirementOneShotsDie) {
  ops::ValuePool pool;
  EXPECT_FALSE(pool.generations_enabled());
  pool.EnableGenerations();
  EXPECT_TRUE(pool.generations_enabled());
  EXPECT_EQ(pool.current_generation(), 1u);

  const ops::StringHandle first = pool.InternHandle("hot-categorical");
  EXPECT_EQ(first.generation, 1u);
  // Second sight within the generation promotes to the persistent tier.
  const ops::StringHandle promoted = pool.InternHandle("hot-categorical");
  EXPECT_EQ(promoted.generation, 0u);

  const ops::StringHandle one_shot = pool.InternHandle("one-shot-device-id");
  EXPECT_EQ(one_shot.generation, 1u);

  EXPECT_EQ(pool.RotateGeneration(), 2u);
  EXPECT_GT(pool.RetireGenerationsBelow(pool.current_generation()), 0u);
  EXPECT_EQ(pool.generations_retired(), 1u);
  EXPECT_GT(pool.retired_bytes(), 0u);

  // The promoted copy survives; the retired handles fail loudly.
  EXPECT_EQ(pool.Get(promoted.id, promoted.generation), "hot-categorical");
  EXPECT_THROW(pool.Get(one_shot.id, one_shot.generation), std::out_of_range);

  // Re-interning after retirement lands in the current generation and is
  // readable again.
  const ops::StringHandle again = pool.InternHandle("one-shot-device-id");
  EXPECT_EQ(again.generation, 2u);
  EXPECT_EQ(pool.Get(again.id, again.generation), "one-shot-device-id");
}

TEST(ValuePoolGenerationsTest, UniqueFloodPlateausWithRetirement) {
  ops::ValuePool governed;
  ops::ValuePool ungoverned;
  governed.EnableGenerations();
  const std::size_t rounds = 12;
  const std::size_t per_round = 500;
  std::size_t governed_mid = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < per_round; ++i) {
      const std::string s = UniqueString(r * per_round + i);
      governed.InternHandle(s);
      ungoverned.InternHandle(s);
    }
    governed.RotateGeneration();
    governed.RetireGenerationsBelow(governed.current_generation());
    if (r == 1) {
      governed_mid = governed.ApproxBytes();
    }
  }
  EXPECT_EQ(governed.generations_retired(), rounds);
  // Bounded vs linear: the governed pool holds only the (empty) current
  // generation while the ungoverned one holds every flood string.
  EXPECT_LT(governed.ApproxBytes(), ungoverned.ApproxBytes() / 4);
  // Plateau: the governed footprint after 12 rounds is no worse than
  // double its footprint after 2.
  EXPECT_LE(governed.ApproxBytes(), 2 * governed_mid + 1024);
  EXPECT_EQ(ungoverned.size(), rounds * per_round);
}

// ---------------------------------------------------------------------------
// Satellite (c): the workload generator's unique-string flood through a
// real sharded runtime — governed pool bytes stay bounded, ungoverned grow
// linearly, and the delivered streams stay value-identical.

struct SoakRuntime {
  std::unique_ptr<ShardedFabricator> fab;
  std::vector<query::QueryId> ids;
};

SoakRuntime BuildRuntime(ops::ValuePool* pool, bool governed,
                         std::size_t shards, bool checkpointed) {
  ShardedConfig config;
  config.num_shards = shards;
  config.fabric.flatten_batch_size = 32;
  config.fabric.seed = 0xC0FFEE;
  config.fabric.sink_capacity = 64;  // bounded live-string holders
  config.fabric.value_pool = pool;
  config.checkpoint.enabled = checkpointed;
  if (governed) {
    // Always-soft governance: every poll runs value-preserving
    // reclamation, never the hard degradation path (digest-safe).
    config.memory.budget_bytes = std::size_t(1) << 40;
    config.memory.soft_watermark = 0.0;
    config.memory.hard_watermark = 2.0;
  }
  SoakRuntime rt;
  rt.fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  const struct {
    ops::AttributeId attribute;
    geom::Rect region;
    double rate;
  } specs[] = {
      {kRain, geom::Rect(0, 0, 4, 4), 6.0},
      {kRain, geom::Rect(1, 1, 3, 3), 3.0},
      {kTemp, geom::Rect(0, 0, 2, 4), 4.0},
  };
  for (const auto& spec : specs) {
    auto q = rt.fab->InsertQuery(spec.attribute, spec.region, spec.rate);
    EXPECT_TRUE(q.ok());
    rt.ids.push_back(q->id);
  }
  return rt;
}

TEST(MemoryGovernanceTest, WorkloadFloodBoundedOnVsLinearOff) {
  ops::ValuePool pool_on;
  ops::ValuePool pool_off;
  SoakRuntime on = BuildRuntime(&pool_on, /*governed=*/true, 2, false);
  SoakRuntime off = BuildRuntime(&pool_off, /*governed=*/false, 2, false);

  const std::size_t rounds = 16;
  std::size_t on_mid = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    bench::WorkloadConfig wc;
    wc.region = geom::Rect(0, 0, 4, 4);
    wc.num_batches = 2;
    wc.batch_size = 256;
    wc.num_attributes = 2;
    wc.unique_string_fraction = 1.0;
    wc.seed = 0x5EED0 + r;
    // Same logical stream into each runtime, interned in its own pool.
    for (auto* target : {&on, &off}) {
      bench::WorkloadConfig per = wc;
      per.value_pool = target == &on ? &pool_on : &pool_off;
      bench::WorkloadGenerator gen(per);
      for (const auto& tuples : gen.MakeBatches()) {
        ops::TupleBatch batch(tuples);
        ASSERT_TRUE(target->fab->ProcessBatch(batch).ok());
      }
    }
    ASSERT_TRUE(on.fab->GovernMemory().ok());
    if (r == 5) {
      // Plateau reference: by round 5 the bounded sinks are mostly warm;
      // from here the governed footprint must stop growing (within noise)
      // while the ungoverned pool keeps accreting every flood string.
      on_mid = pool_on.ApproxBytes();
    }
  }

  // Bounded vs linear growth.
  EXPECT_GT(pool_on.generations_retired(), 0u);
  EXPECT_LT(pool_on.ApproxBytes(), pool_off.ApproxBytes() / 3);
  EXPECT_LE(pool_on.ApproxBytes(), 2 * on_mid);

  // Snapshot plumbs the *actual* pool and governance telemetry (satellite
  // b: no ValuePool::Global() hardcode).
  const ShardedStats stats = on.fab->Snapshot();
  EXPECT_EQ(stats.value_pool_bytes, pool_on.ApproxBytes());
  EXPECT_EQ(stats.pool_generations_retired, pool_on.generations_retired());
  EXPECT_EQ(stats.memory_pressure, 1);  // always-soft watermarks
  EXPECT_FALSE(on.fab->degraded());
  const ShardedStats off_stats = off.fab->Snapshot();
  EXPECT_EQ(off_stats.value_pool_bytes, pool_off.ApproxBytes());
  EXPECT_EQ(off_stats.memory_pressure, 0);

  // Soft governance is value-preserving: delivered streams stay
  // content-identical with governance on vs off.
  for (std::size_t i = 0; i < on.ids.size(); ++i) {
    const auto sa = on.fab->GetStream(on.ids[i]);
    const auto sb = off.fab->GetStream(off.ids[i]);
    ASSERT_TRUE(sa.ok() && sb.ok());
    const std::uint64_t da = ValueDigest(sa->sink->tuples(), pool_on);
    const std::uint64_t db = ValueDigest(sb->sink->tuples(), pool_off);
    EXPECT_EQ(da, db) << "query slot " << i;
    EXPECT_NE(da, 0u);
  }
}

// ---------------------------------------------------------------------------
// Satellite (c): checkpoint -> generation retirement -> crash -> restore.
// The checkpoint serializes strings by value and re-interns on restore, so
// a snapshot taken *before* a retirement must restore cleanly *after* it.

TEST(MemoryGovernanceTest, CheckpointRestoreSpansGenerationRetirement) {
  ops::ValuePool pool;
  ops::ValuePool twin_pool;
  SoakRuntime governed =
      BuildRuntime(&pool, /*governed=*/true, 2, /*checkpointed=*/true);
  SoakRuntime twin =
      BuildRuntime(&twin_pool, /*governed=*/false, 2, /*checkpointed=*/false);

  Rng rng_a(424242), rng_b(424242);
  double t_a = 0.0, t_b = 0.0;
  std::uint64_t next = 1;
  auto make_batch = [](Rng* rng, double* t, std::uint64_t first,
                       ops::ValuePool* p) {
    ops::TupleBatch batch;
    for (std::size_t i = 0; i < 96; ++i) {
      ops::Tuple tuple;
      tuple.id = first + i;
      tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
      *t += 0.002;
      tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                         rng->Uniform(0.0, 4.0)};
      tuple.value = ops::PayloadRef::String(UniqueString(first + i), *p);
      batch.Append(tuple);
    }
    return batch;
  };

  for (std::size_t round = 0; round < 12; ++round) {
    ops::TupleBatch governed_batch = make_batch(&rng_a, &t_a, next, &pool);
    ASSERT_TRUE(governed.fab->ProcessBatch(governed_batch).ok());
    ops::TupleBatch twin_batch = make_batch(&rng_b, &t_b, next, &twin_pool);
    ASSERT_TRUE(twin.fab->ProcessBatch(twin_batch).ok());
    next += 96;
    if (round == 3) {
      ASSERT_TRUE(governed.fab->Checkpoint().ok());
    }
    // Governance retires a generation *after* the checkpoint was taken:
    // the serialized strings must not dangle on restore.
    ASSERT_TRUE(governed.fab->GovernMemory().ok());
    if (round == 6) {
      ASSERT_TRUE(governed.fab->InjectShardCrash(0).ok());
    }
    if (round == 9) {
      ASSERT_TRUE(governed.fab->InjectShardCrash(1).ok());
    }
  }
  ASSERT_TRUE(governed.fab->Drain().ok());
  ASSERT_TRUE(twin.fab->Drain().ok());
  ASSERT_TRUE(governed.fab->ValidateInvariants().ok());
  EXPECT_GT(pool.generations_retired(), 0u);

  for (std::size_t i = 0; i < governed.ids.size(); ++i) {
    const auto sa = governed.fab->GetStream(governed.ids[i]);
    const auto sb = twin.fab->GetStream(twin.ids[i]);
    ASSERT_TRUE(sa.ok() && sb.ok());
    const std::uint64_t da = ValueDigest(sa->sink->tuples(), pool);
    const std::uint64_t db = ValueDigest(sb->sink->tuples(), twin_pool);
    EXPECT_EQ(da, db) << "query slot " << i;
    EXPECT_NE(da, 0u);
  }
}

// ---------------------------------------------------------------------------
// Acceptance pin: delivered-stream digests are byte-exact governance on vs
// off across shard counts and emulated pipeline depths, under query churn
// plus crash/restore on the governed runtime.

TEST(MemoryGovernanceTest, DigestEquivalenceAcrossShardsAndDepths) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t depth : {1u, 2u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " depth=" + std::to_string(depth));
      ops::ValuePool pool_on;
      ops::ValuePool pool_off;
      SoakRuntime on =
          BuildRuntime(&pool_on, /*governed=*/true, shards, true);
      SoakRuntime off =
          BuildRuntime(&pool_off, /*governed=*/false, shards, false);

      Rng rng_a(7777), rng_b(7777);
      double t_a = 0.0, t_b = 0.0;
      std::uint64_t next = 1;
      query::QueryId churn_on = 0, churn_off = 0;
      const std::size_t rounds = 30;
      for (std::size_t r = 0; r < rounds; ++r) {
        // Identical topology churn on both runtimes.
        if (r % 7 == 5) {
          if (churn_on != 0) {
            ASSERT_TRUE(on.fab->RemoveQuery(churn_on).ok());
            ASSERT_TRUE(off.fab->RemoveQuery(churn_off).ok());
          }
          auto qa = on.fab->InsertQuery(kRain, geom::Rect(0, 0, 2, 2), 5.0);
          auto qb = off.fab->InsertQuery(kRain, geom::Rect(0, 0, 2, 2), 5.0);
          ASSERT_TRUE(qa.ok() && qb.ok());
          churn_on = qa->id;
          churn_off = qb->id;
        }
        auto build = [&](Rng* rng, double* t, ops::ValuePool* p) {
          std::vector<ops::Tuple> tuples;
          for (std::size_t i = 0; i < 64; ++i) {
            ops::Tuple tuple;
            tuple.id = next + i;
            tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
            *t += 0.002;
            tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                               rng->Uniform(0.0, 4.0)};
            if (i % 2 == 0) {
              tuple.value =
                  ops::PayloadRef::String(UniqueString(next + i), *p);
            }
            tuples.push_back(tuple);
          }
          ops::TupleBatch batch;
          batch.Assign(tuples);
          return batch;
        };
        ops::TupleBatch a = build(&rng_a, &t_a, &pool_on);
        ops::TupleBatch b = build(&rng_b, &t_b, &pool_off);
        next += 64;
        const std::uint64_t epoch = r + 1;
        ASSERT_TRUE(on.fab->EnqueueBatch(a, epoch).ok());
        ASSERT_TRUE(off.fab->EnqueueBatch(b, epoch).ok());
        // Emulated pipeline depth: drain `depth` epochs behind the head.
        if (epoch > depth) {
          ASSERT_TRUE(on.fab->DrainThrough(epoch - depth).ok());
          ASSERT_TRUE(off.fab->DrainThrough(epoch - depth).ok());
        }
        if (r % 3 == 2) {
          ASSERT_TRUE(on.fab->GovernMemory().ok());
        }
        if (r == 8 || r == 16) {
          ASSERT_TRUE(on.fab->Checkpoint().ok());
        }
        if (r == 10 || r == 20) {
          ASSERT_TRUE(on.fab->InjectShardCrash(r % shards).ok());
        }
      }
      ASSERT_TRUE(on.fab->Drain().ok());
      ASSERT_TRUE(off.fab->Drain().ok());
      EXPECT_GT(pool_on.generations_retired(), 0u);

      std::vector<query::QueryId> ids_on = on.ids;
      std::vector<query::QueryId> ids_off = off.ids;
      if (churn_on != 0) {
        ids_on.push_back(churn_on);
        ids_off.push_back(churn_off);
      }
      for (std::size_t i = 0; i < ids_on.size(); ++i) {
        const auto sa = on.fab->GetStream(ids_on[i]);
        const auto sb = off.fab->GetStream(ids_off[i]);
        ASSERT_TRUE(sa.ok() && sb.ok());
        const std::uint64_t da = ValueDigest(sa->sink->tuples(), pool_on);
        const std::uint64_t db = ValueDigest(sb->sink->tuples(), pool_off);
        EXPECT_EQ(da, db) << "query slot " << i;
        EXPECT_NE(da, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hard pressure: forced through the "runtime.mem_pressure" fault site —
// deliveries shed instead of the process growing without bound, degraded()
// reports true, and everything recovers once pressure recedes.

TEST(MemoryGovernanceTest, HardPressureDegradesAndRecovers) {
  FaultRegistry::Global().Reset();
  ops::ValuePool pool;
  // Real watermarks never trip (tiny usage vs 1 TiB budget); the fault
  // site forces the level deterministically.
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric.flatten_batch_size = 32;
  config.fabric.seed = 0xC0FFEE;
  config.fabric.value_pool = &pool;
  config.memory.budget_bytes = std::size_t(1) << 40;
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  auto q = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 50.0);
  ASSERT_TRUE(q.ok());

  Rng rng(31337);
  double t = 0.0;
  std::uint64_t next = 1;
  auto feed = [&]() {
    ops::TupleBatch batch;
    for (std::size_t i = 0; i < 64; ++i) {
      ops::Tuple tuple;
      tuple.id = next++;
      tuple.attribute = kRain;
      t += 0.002;
      tuple.point = geom::SpaceTimePoint{t, rng.Uniform(0.0, 4.0),
                                         rng.Uniform(0.0, 4.0)};
      batch.Append(tuple);
    }
    ASSERT_TRUE(fab->ProcessBatch(batch).ok());
  };

  feed();
  ASSERT_TRUE(fab->GovernMemory().ok());
  EXPECT_FALSE(fab->degraded());
  EXPECT_EQ(fab->memory_pressure(), MemoryPressure::kNone);
  const std::size_t before = q->sink->tuples().size();
  EXPECT_GT(before, 0u);

  // Force hard pressure (param 2 = hard).
  FaultSpec spec;
  spec.probability = 1.0;
  spec.param = 2;
  FaultRegistry::Global().Arm("runtime.mem_pressure", spec);
  ASSERT_TRUE(fab->GovernMemory().ok());
  EXPECT_TRUE(fab->degraded());
  EXPECT_EQ(fab->memory_pressure(), MemoryPressure::kHard);
  EXPECT_EQ(fab->Snapshot().memory_pressure, 2);

  // Under hard pressure deliveries shed (spool/drop) instead of reaching
  // the sink; the runtime keeps accepting input and survives.
  feed();
  feed();
  EXPECT_EQ(q->sink->tuples().size(), before);

  // Pressure recedes: the next poll clears degradation and deliveries
  // flow again.
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(fab->GovernMemory().ok());
  EXPECT_FALSE(fab->degraded());
  EXPECT_EQ(fab->memory_pressure(), MemoryPressure::kNone);
  feed();
  EXPECT_GT(q->sink->tuples().size(), before);
}

}  // namespace
}  // namespace runtime
}  // namespace craqr
