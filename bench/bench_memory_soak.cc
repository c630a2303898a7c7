/// \file bench_memory_soak.cc
/// \brief Bounded-memory endurance soak: a governed sharded runtime under
/// seeded query churn plus an adversarial unique-string flood (every
/// tuple carries a never-repeating string payload — the input an
/// ungoverned interning pool can never forget) for many rounds, asserting
/// that the governed footprint (pool + arenas + queues) plateaus under
/// `memory_budget_bytes` while a twin ungoverned pool fed the identical
/// strings grows linearly.
///
/// The schedule is fully determined by --seed: the CI job logs the seed
/// it drew, so any failure replays exactly with
/// `bench_memory_soak --seed <logged>`. Governance runs the
/// value-preserving soft path (generation retirement + re-intern + arena
/// trim); digest equivalence governance on vs off is pinned by
/// memory_governance_test — this soak's subject is the *plateau*.
///
/// Usage: bench_memory_soak [--seed N] [--json <path>]
///                          [--metrics-json <path>] [rounds] [shards]
/// Prints one `SOAK PASS`/`SOAK FAIL` line (the CI soak step greps it)
/// and exits non-zero when the plateau or retirement assertions fail.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/exporter.h"
#include "runtime/sharded_fabricator.h"
#include "workload_gen.h"

namespace {

using namespace craqr;  // NOLINT

constexpr ops::AttributeId kRain = 0;
constexpr ops::AttributeId kTemp = 1;

/// Budget sized so the flood crosses the soft watermark every handful of
/// rounds (several reclamation cycles per soak) while post-retirement
/// usage stays under the hard watermark — the steady governed regime is
/// a sawtooth bounded by the soft watermark, never degradation.
constexpr std::size_t kBudgetBytes = std::size_t(3) << 19;  // 1.5 MiB

struct SoakRuntime {
  std::unique_ptr<runtime::ShardedFabricator> fab;
  std::vector<query::QueryId> stable_ids;
  query::QueryId churn_id = 0;
};

bool BuildRuntime(ops::ValuePool* pool, std::size_t shards,
                  SoakRuntime* out) {
  runtime::ShardedConfig config;
  config.num_shards = shards;
  config.fabric.flatten_batch_size = 32;
  config.fabric.seed = 0xC0FFEE;
  config.fabric.sink_capacity = 64;  // bounded live-string holders
  config.fabric.value_pool = pool;
  config.memory.budget_bytes = kBudgetBytes;
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

/// One round's topology churn (deterministic from the round index).
bool Churn(SoakRuntime* rt, std::size_t round) {
  if (round % 7 == 5) {
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
  const std::string json_path = benchjson::ExtractJsonPath(&argc, argv);
  const std::string metrics_path =
      benchjson::ExtractFlagValue(&argc, argv, "--metrics-json");
  std::uint64_t seed = 0x10DEAD;
  std::size_t rounds = 60;
  std::size_t shards = 2;
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
  std::printf("memory-soak seed=%llu rounds=%zu shards=%zu budget=%zu\n",
              static_cast<unsigned long long>(seed), rounds, shards,
              kBudgetBytes);

  ops::ValuePool governed_pool;
  ops::ValuePool ungoverned_pool;
  SoakRuntime rt;
  if (!BuildRuntime(&governed_pool, shards, &rt)) {
    return 1;
  }

  // Plateau windows: after warmup the governed footprint is a sawtooth
  // (grow to the soft watermark, reclaim, repeat), so the plateau check
  // compares the high water of the first post-warmup half-window against
  // the second — linear growth fails it, a bounded sawtooth passes.
  const std::size_t warmup = std::max<std::size_t>(rounds / 4, 6);
  const std::size_t mid = warmup + (rounds - warmup) / 2;
  std::size_t high_water_first = 0;
  std::size_t high_water_second = 0;
  std::size_t pumped = 0;
  double pump_seconds = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (!Churn(&rt, round)) {
      std::fprintf(stderr, "churn failed at round %zu\n", round);
      return 1;
    }
    // Fresh generator per round (the flood must be interned *after* prior
    // retirements — pre-generating every batch would pin every handle
    // live and make the plateau vacuous). Seed-qualified flood strings
    // keep rounds globally unique.
    bench::WorkloadConfig wc;
    wc.region = geom::Rect(0, 0, 4, 4);
    wc.num_batches = 2;
    wc.batch_size = 256;
    wc.num_attributes = 2;
    wc.unique_string_fraction = 1.0;
    wc.seed = seed * 1000003 + round;
    wc.value_pool = &governed_pool;
    const bench::WorkloadGenerator gen(wc);
    // Twin: the identical strings into an ungoverned pool — the linear
    // baseline the plateau is measured against.
    bench::WorkloadConfig twin = wc;
    twin.value_pool = &ungoverned_pool;
    (void)bench::WorkloadGenerator(twin).MakeBatches();

    const auto start = std::chrono::steady_clock::now();
    for (const auto& batch : gen.MakeBatches()) {
      if (!rt.fab->ProcessBatch(batch).ok()) {
        std::fprintf(stderr, "ProcessBatch failed at round %zu\n", round);
        return 1;
      }
      pumped += batch.size();
    }
    if (!rt.fab->GovernMemory().ok()) {
      std::fprintf(stderr, "GovernMemory failed at round %zu\n", round);
      return 1;
    }
    const auto end = std::chrono::steady_clock::now();
    pump_seconds +=
        std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
            .count();

    const runtime::ShardedStats stats = rt.fab->Snapshot();
    // Snapshot barriers first, so shard queues are drained: the governed
    // footprint at a round boundary is pool + parked arena storage.
    const std::size_t governed_bytes =
        stats.value_pool_bytes + stats.arena_free_bytes;
    if (round >= warmup && round < mid) {
      high_water_first = std::max(high_water_first, governed_bytes);
    } else if (round >= mid) {
      high_water_second = std::max(high_water_second, governed_bytes);
    }
    if (round % 10 == 9) {
      std::printf(
          "round %3zu: governed=%8zu ungoverned=%8zu retired=%llu "
          "pressure=%d\n",
          round, governed_bytes, ungoverned_pool.ApproxBytes(),
          static_cast<unsigned long long>(stats.pool_generations_retired),
          stats.memory_pressure);
    }
  }
  if (!rt.fab->Drain().ok() || !rt.fab->ValidateInvariants().ok()) {
    std::fprintf(stderr, "final drain / invariants failed\n");
    return 1;
  }

  const runtime::ShardedStats stats = rt.fab->Snapshot();
  const std::size_t governed_final =
      stats.value_pool_bytes + stats.arena_free_bytes;
  const std::size_t ungoverned_final = ungoverned_pool.ApproxBytes();
  const double rate =
      pump_seconds > 0.0 ? static_cast<double>(pumped) / pump_seconds : 0.0;
  const std::size_t high_water =
      std::max(high_water_first, high_water_second);
  std::printf("pumped %zu tuples at %.0f tuples/sec\n", pumped, rate);
  std::printf("governed high-water: rounds [%zu,%zu)=%zu  [%zu,%zu)=%zu\n",
              warmup, mid, high_water_first, mid, rounds,
              high_water_second);
  std::printf("governed final: %zu vs ungoverned %zu (%.1fx)\n",
              governed_final, ungoverned_final,
              governed_final > 0
                  ? static_cast<double>(ungoverned_final) / governed_final
                  : 0.0);

  bool pass = true;
  if (stats.pool_generations_retired < 2) {
    std::fprintf(stderr,
                 "FAIL: governance retired %llu generations (need >= 2 "
                 "reclamation cycles)\n",
                 static_cast<unsigned long long>(
                     stats.pool_generations_retired));
    pass = false;
  }
  // Plateau: the second half-window's high water must not exceed the
  // first's by more than 25% (linear growth roughly doubles it), and the
  // whole sawtooth stays under the budget.
  if (high_water_second * 4 > high_water_first * 5) {
    std::fprintf(stderr,
                 "FAIL: footprint still growing after warmup (%zu -> %zu)\n",
                 high_water_first, high_water_second);
    pass = false;
  }
  if (high_water > kBudgetBytes) {
    std::fprintf(stderr, "FAIL: high water %zu exceeds budget %zu\n",
                 high_water, kBudgetBytes);
    pass = false;
  }
  // Linear contrast: the ungoverned pool holding every flood string must
  // dwarf the governed steady state.
  if (governed_final * 3 > ungoverned_final) {
    std::fprintf(stderr,
                 "FAIL: governed %zu not clearly bounded vs ungoverned %zu\n",
                 governed_final, ungoverned_final);
    pass = false;
  }
  // Graceful: steady-state governance must not leave the runtime degraded
  // (hard pressure is the overload escape hatch, not the operating mode).
  if (rt.fab->degraded()) {
    std::fprintf(stderr, "FAIL: runtime still degraded after final drain\n");
    pass = false;
  }
  for (const query::QueryId id : rt.stable_ids) {
    const auto stream = rt.fab->GetStream(id);
    if (!stream.ok() || stream->sink->tuples().empty()) {
      std::fprintf(stderr, "FAIL: query %llu delivered nothing\n",
                   static_cast<unsigned long long>(id));
      pass = false;
    }
  }

  if (!json_path.empty()) {
    std::vector<benchjson::Entry> entries;
    auto add = [&entries](const std::string& name, std::uint64_t iters,
                          double value, bool is_rate) {
      benchjson::Entry e;
      e.name = name;
      e.iters = iters;
      e.ns_per_op = is_rate && value > 0.0 ? 1e9 / value : 0.0;
      e.tuples_per_sec = value;
      entries.push_back(std::move(e));
    };
    // Byte telemetry rides the rate column (the benches' primary-value
    // convention, see bench_json.h); ns_per_op is only meaningful for
    // the throughput row.
    add("BM_MemorySoakThroughput", pumped, rate, true);
    add("BM_MemorySoakGovernedHighWaterBytes", rounds,
        static_cast<double>(high_water), false);
    add("BM_MemorySoakGovernedFinalBytes", rounds,
        static_cast<double>(governed_final), false);
    add("BM_MemorySoakUngovernedPoolBytes", rounds,
        static_cast<double>(ungoverned_final), false);
    add("BM_MemorySoakGenerationsRetired", rounds,
        static_cast<double>(stats.pool_generations_retired), false);
    benchjson::WriteEntries(json_path, entries);
  }
  if (!metrics_path.empty()) {
    const Status status =
        obs::MetricsExporter::WriteJsonSnapshot(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write metrics snapshot: %s\n",
                   status.ToString().c_str());
      pass = false;
    }
  }

  std::printf("SOAK %s seed=%llu\n", pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(seed));
  return pass ? 0 : 1;
}
