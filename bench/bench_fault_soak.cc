/// \file bench_fault_soak.cc
/// \brief Crash-recovery soak: hammer a checkpointed sharded runtime with
/// randomized shard crashes, checkpoint cadence and query churn for many
/// epochs, and verify after every round-trip that its delivered streams
/// stay byte-identical (FNV digest over content AND order) to a twin
/// runtime that never crashed.
///
/// The schedule is fully determined by --seed: the CI job logs the seed it
/// drew, so any failure replays exactly with
/// `bench_fault_soak --seed <logged>`. Crashes are injected through
/// ShardedFabricator::InjectShardCrash (not the global fault registry —
/// the registry is process-wide and would fail the twin, which has no
/// checkpoint to recover from).
///
/// Usage: bench_fault_soak [--seed N] [rounds] [shards]
/// Prints one `SOAK PASS`/`SOAK FAIL` line (the CI soak step greps it)
/// and exits non-zero on any divergence.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/sharded_fabricator.h"

namespace {

using namespace craqr;  // NOLINT

constexpr ops::AttributeId kRain = 0;
constexpr ops::AttributeId kTemp = 1;

std::vector<ops::Tuple> MakeBatch(Rng* rng, double* t, std::size_t n,
                                  std::uint64_t* next_id) {
  std::vector<ops::Tuple> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple tuple;
    tuple.id = (*next_id)++;
    tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
    *t += 0.002;
    tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                       rng->Uniform(0.0, 4.0)};
    batch.push_back(tuple);
  }
  return batch;
}

std::uint64_t StreamDigest(runtime::ShardedFabricator* fab,
                           query::QueryId id) {
  std::uint64_t h = 14695981039346656037ULL;
  auto fold = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const auto stream = fab->GetStream(id);
  if (!stream.ok()) {
    return 0;
  }
  for (const auto& tuple : stream->sink->tuples()) {
    fold(&tuple.id, sizeof(tuple.id));
    fold(&tuple.attribute, sizeof(tuple.attribute));
    fold(&tuple.point.t, sizeof(tuple.point.t));
    fold(&tuple.point.x, sizeof(tuple.point.x));
    fold(&tuple.point.y, sizeof(tuple.point.y));
  }
  return h;
}

struct SoakRuntime {
  std::unique_ptr<runtime::ShardedFabricator> fab;
  std::vector<query::QueryId> stable_ids;
  query::QueryId churn_id = 0;
};

bool BuildRuntime(std::size_t shards, bool checkpointed, SoakRuntime* out) {
  runtime::ShardedConfig config;
  config.num_shards = shards;
  config.fabric.flatten_batch_size = 32;
  config.fabric.seed = 0xC0FFEE;
  config.checkpoint.enabled = checkpointed;
  auto made = runtime::ShardedFabricator::Make(
      geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue(), config);
  if (!made.ok()) {
    std::fprintf(stderr, "Make failed: %s\n",
                 made.status().ToString().c_str());
    return false;
  }
  out->fab = made.MoveValue();
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
    auto q = out->fab->InsertQuery(spec.attribute, spec.region, spec.rate);
    if (!q.ok()) {
      std::fprintf(stderr, "InsertQuery failed: %s\n",
                   q.status().ToString().c_str());
      return false;
    }
    out->stable_ids.push_back(q->id);
  }
  return true;
}

/// Applies one round's identical topology churn to a runtime.
bool Churn(SoakRuntime* rt, std::size_t round) {
  if (round % 11 == 5) {
    if (rt->churn_id != 0 && !rt->fab->RemoveQuery(rt->churn_id).ok()) {
      return false;
    }
    auto q = rt->fab->InsertQuery(kRain, geom::Rect(0, 0, 2, 2), 5.0);
    if (!q.ok()) {
      return false;
    }
    rt->churn_id = q->id;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0xF417;
  std::size_t rounds = 200;
  std::size_t shards = 3;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (!positional.empty()) {
    rounds = std::strtoull(positional[0].c_str(), nullptr, 0);
  }
  if (positional.size() > 1) {
    shards = std::strtoull(positional[1].c_str(), nullptr, 0);
  }
  std::printf("fault-soak seed=%llu rounds=%zu shards=%zu\n",
              static_cast<unsigned long long>(seed), rounds, shards);

  SoakRuntime crashy, twin;
  if (!BuildRuntime(shards, /*checkpointed=*/true, &crashy) ||
      !BuildRuntime(shards, /*checkpointed=*/false, &twin)) {
    return 1;
  }

  // Two identical tuple tapes (one Rng each so crash handling can never
  // skew the other's sequence) and one schedule Rng for the fault plan.
  Rng tape_a(424242), tape_b(424242), schedule(seed);
  double t_a = 0.0, t_b = 0.0;
  std::uint64_t id_a = 1, id_b = 1;
  std::uint64_t crashes = 0, checkpoints = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (!Churn(&crashy, round) || !Churn(&twin, round)) {
      std::fprintf(stderr, "churn failed at round %zu\n", round);
      return 1;
    }
    auto a = MakeBatch(&tape_a, &t_a, 96, &id_a);
    auto b = MakeBatch(&tape_b, &t_b, 96, &id_b);
    if (!crashy.fab->ProcessBatch(a).ok() ||
        !twin.fab->ProcessBatch(b).ok()) {
      std::fprintf(stderr, "ProcessBatch failed at round %zu\n", round);
      return 1;
    }
    if (schedule.Uniform(0.0, 1.0) < 0.15) {
      const auto victim =
          static_cast<std::size_t>(schedule.Uniform(0.0, 1.0) * shards) %
          shards;
      const Status crash = crashy.fab->InjectShardCrash(victim);
      if (!crash.ok()) {
        std::fprintf(stderr, "crash of shard %zu at round %zu failed: %s\n",
                     victim, round, crash.ToString().c_str());
        return 1;
      }
      ++crashes;
    }
    if (round % 17 == 16) {
      if (!crashy.fab->Checkpoint().ok()) {
        std::fprintf(stderr, "checkpoint failed at round %zu\n", round);
        return 1;
      }
      ++checkpoints;
    }
  }
  if (!crashy.fab->Drain().ok() || !twin.fab->Drain().ok()) {
    std::fprintf(stderr, "final drain failed\n");
    return 1;
  }
  if (!crashy.fab->ValidateInvariants().ok()) {
    std::fprintf(stderr, "invariants violated after soak\n");
    return 1;
  }

  bool pass = true;
  std::vector<query::QueryId> ids_a = crashy.stable_ids;
  std::vector<query::QueryId> ids_b = twin.stable_ids;
  if (crashy.churn_id != 0) {
    ids_a.push_back(crashy.churn_id);
    ids_b.push_back(twin.churn_id);
  }
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    const std::uint64_t da = StreamDigest(crashy.fab.get(), ids_a[i]);
    const std::uint64_t db = StreamDigest(twin.fab.get(), ids_b[i]);
    std::printf("query[%zu] digest crashed=%016llx twin=%016llx %s\n", i,
                static_cast<unsigned long long>(da),
                static_cast<unsigned long long>(db),
                da == db ? "ok" : "MISMATCH");
    pass = pass && da == db && da != 0;
  }
  std::printf("crashes=%llu checkpoints=%llu\n",
              static_cast<unsigned long long>(crashes),
              static_cast<unsigned long long>(checkpoints));
  if (crashes == 0) {
    std::fprintf(stderr, "schedule injected no crashes; soak is vacuous\n");
    pass = false;
  }
  std::printf("SOAK %s seed=%llu\n", pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(seed));
  return pass ? 0 : 1;
}
