/// \file bench_multiquery.cc
/// \brief City-scale multi-query sharing sweep — the marginal-cost curve.
///
/// Paper Section III: "The naive strategy of processing each query from
/// scratch (i.e., individually), is not cost effective ... multiple query
/// optimization principles need to be employed." This bench measures that
/// economy end to end: a workload-generator schedule (bursty arrivals,
/// skewed hot-spot templates, heavy churn — bench/workload_gen.h) drives
/// the sharded runtime at queries {16, 64, 256} x region-overlap fraction
/// {0.1, 0.5, 0.9} x sharing on/off x shards {1, 2, 4}. The headline is
/// the sharing-on vs sharing-off throughput ratio as overlap and query
/// count grow — the per-workload marginal cost the fabric's ref-counted
/// subplan dedup buys. Delivered-stream digests are asserted byte-exact
/// sharing on vs off in every configuration (sharing must never change a
/// delivered byte, only the work to produce it).
///
/// `--churn` instead runs the route-LUT maintenance regression: one
/// fabricator under a cancel-heavy schedule, reporting tuples/sec plus
/// the incremental-patch vs full-rebuild counters
/// (fabric::StreamFabricator::route_patches/route_rebuilds) — the guard
/// against regressing InsertQuery/CancelQuery back to a full rows x cols
/// LUT sweep per churn event.
///
/// Usage: bench_multiquery [--json <path>] [--metrics-json <path>]
///                         [batches] [batch_size]
///        bench_multiquery --churn [--json <path>] [batches] [batch_size]
///
/// `--json <path>` writes every configuration as
/// `{name, iters, ns_per_op, tuples_per_sec}` rows (ratio rows report the
/// on/off speedup in the rate column) — the BENCH_*.json trajectory format.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "workload_gen.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "obs/exporter.h"
#include "runtime/sharded_fabricator.h"

namespace {

using namespace craqr;  // NOLINT

std::vector<benchjson::Entry> g_json_entries;

void AddJsonEntry(const std::string& name, std::uint64_t iters, double rate) {
  benchjson::Entry e;
  e.name = name;
  e.iters = iters;
  e.ns_per_op = rate > 0.0 ? 1e9 / rate : 0.0;
  e.tuples_per_sec = rate;
  g_json_entries.push_back(std::move(e));
}

constexpr double kWorldSize = 8.0;
/// 32x32 cells of edge 0.25 against thin corridor queries (see
/// bench::WorkloadConfig): every query needs carve-outs (P stages) in
/// dozens of cells and each carve-out keeps only a sliver of its cell's
/// stream, so rescanning per query — the work sharing dedups — carries
/// the multi-query cost.
constexpr std::uint32_t kGridH = 1024;
/// Per-configuration repetitions; throughput is the best rep (workload
/// replay is deterministic, so reps differ only by scheduler noise) and
/// digests are asserted identical across reps.
constexpr int kReps = 3;

geom::Grid BenchGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, kWorldSize, kWorldSize), kGridH)
      .MoveValue();
}

fabric::FabricConfig BenchFabricConfig(bool sharing) {
  fabric::FabricConfig config;
  config.flatten_batch_size = 64;
  config.seed = 0xBE7CB;
  config.enable_sharing = sharing;
  return config;
}

bench::WorkloadConfig SweepWorkload(std::size_t queries, double overlap,
                                    std::size_t batches,
                                    std::size_t batch_size) {
  bench::WorkloadConfig wc;
  wc.region = geom::Rect(0, 0, kWorldSize, kWorldSize);
  wc.num_queries = queries;
  wc.overlap_fraction = overlap;
  wc.num_batches = batches;
  wc.batch_size = batch_size;
  wc.churn_fraction = 0.2;
  return wc;
}

/// Order-sensitive FNV-1a fold over one delivered stream's identity
/// columns (same fold as the test suite's digest pins).
std::uint64_t StreamDigest(std::uint64_t h,
                           const std::vector<ops::Tuple>& tuples) {
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

struct SweepResult {
  double tuples_per_sec = 0.0;
  std::uint64_t routed = 0;
  /// Fold of every surviving query's delivered stream, in slot order.
  std::uint64_t digest = 0;
  std::uint64_t shared_prefix_hits = 0;
  std::size_t stages_shared = 0;
};

/// Replays the generator's schedule against a sharded runtime: before
/// feeding batch b, every arrival/cancel stamped `at_batch <= b` fires.
/// Only the batch pumping is timed — insertion cost is the --churn
/// bench's subject, throughput under live queries is this one's.
SweepResult RunSweepConfig(const bench::WorkloadGenerator& gen,
                           const std::vector<std::vector<ops::Tuple>>& batches,
                           bool sharing, std::size_t num_shards) {
  runtime::ShardedConfig config;
  config.num_shards = num_shards;
  config.fabric = BenchFabricConfig(sharing);
  auto made = runtime::ShardedFabricator::Make(BenchGrid(), config);
  if (!made.ok()) {
    std::fprintf(stderr, "ShardedFabricator::Make failed: %s\n",
                 made.status().ToString().c_str());
    std::exit(1);
  }
  auto fab = made.MoveValue();

  std::map<std::size_t, fabric::QueryStream> streams;  // slot -> handle
  const auto& schedule = gen.schedule();
  std::size_t cursor = 0;
  const auto apply_until = [&](std::size_t batch) {
    for (; cursor < schedule.size() && schedule[cursor].at_batch <= batch;
         ++cursor) {
      const bench::QueryEvent& ev = schedule[cursor];
      if (ev.kind == bench::QueryEvent::Kind::kInsert) {
        auto stream = fab->InsertQuery(ev.spec.attribute, ev.spec.region,
                                       ev.spec.rate);
        if (!stream.ok()) {
          std::fprintf(stderr, "InsertQuery failed: %s\n",
                       stream.status().ToString().c_str());
          std::exit(1);
        }
        streams.emplace(ev.slot, stream.MoveValue());
      } else {
        const auto it = streams.find(ev.slot);
        if (it == streams.end() ||
            !fab->RemoveQuery(it->second.id).ok()) {
          std::fprintf(stderr, "RemoveQuery failed (slot %zu)\n", ev.slot);
          std::exit(1);
        }
        streams.erase(it);
      }
    }
  };

  // Pipelined pump: batches are enqueued without a per-batch barrier so
  // router-side handoff overlaps shard-side processing (the runtime's
  // steady operating mode). Query events still land between the right
  // batches — InsertQuery/RemoveQuery synchronize with in-flight work
  // internally — and the final Drain settles every delivery before the
  // digest fold.
  double pump_seconds = 0.0;
  std::size_t pumped = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    apply_until(b);
    const auto start = std::chrono::steady_clock::now();
    ops::TupleBatch batch(batches[b]);
    if (!fab->EnqueueBatch(batch).ok()) {
      std::fprintf(stderr, "EnqueueBatch failed\n");
      std::exit(1);
    }
    const auto end = std::chrono::steady_clock::now();
    pump_seconds +=
        std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
            .count();
    pumped += batches[b].size();
  }
  {
    const auto start = std::chrono::steady_clock::now();
    if (!fab->Drain().ok()) {
      std::fprintf(stderr, "Drain failed\n");
      std::exit(1);
    }
    const auto end = std::chrono::steady_clock::now();
    pump_seconds +=
        std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
            .count();
  }
  apply_until(batches.size());  // trailing cancels

  SweepResult result;
  result.tuples_per_sec =
      pump_seconds > 0.0 ? static_cast<double>(pumped) / pump_seconds : 0.0;
  const auto stats = fab->TrySnapshot();
  if (!stats.ok()) {
    std::fprintf(stderr, "TrySnapshot failed: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  result.routed = stats->tuples_routed;
  result.shared_prefix_hits = stats->shared_prefix_hits;
  result.stages_shared = stats->stages_shared;
  std::uint64_t digest = 14695981039346656037ULL;
  for (const auto& [slot, stream] : streams) {  // std::map: slot order
    digest = StreamDigest(digest ^ slot, stream.sink->tuples());
  }
  result.digest = digest;
  return result;
}

bool RunSharingSweep(std::size_t batches, std::size_t batch_size) {
  std::printf("multi-query sharing sweep (workload generator)\n");
  std::printf("  %zu batches x %zu tuples; hardware threads: %u\n\n", batches,
              batch_size, std::thread::hardware_concurrency());
  std::printf("%-44s %14s %12s %10s %8s\n", "configuration", "tuples/sec",
              "routed", "hits", "shared");

  bool ok = true;
  for (const std::size_t queries : {16u, 64u, 256u}) {
    for (const double overlap : {0.1, 0.5, 0.9}) {
      const bench::WorkloadGenerator gen(
          SweepWorkload(queries, overlap, batches, batch_size));
      const auto tuple_batches = gen.MakeBatches();
      for (const std::size_t shards : {1u, 2u, 4u}) {
        SweepResult on;
        SweepResult off;
        for (const bool sharing : {false, true}) {
          SweepResult r = RunSweepConfig(gen, tuple_batches, sharing, shards);
          for (int rep = 1; rep < kReps; ++rep) {
            const SweepResult again =
                RunSweepConfig(gen, tuple_batches, sharing, shards);
            if (again.digest != r.digest || again.routed != r.routed) {
              std::fprintf(stderr,
                           "FAIL: nondeterministic replay at q=%zu ov=%.1f "
                           "share=%d shards=%zu\n",
                           queries, overlap, sharing ? 1 : 0, shards);
              ok = false;
            }
            r.tuples_per_sec = std::max(r.tuples_per_sec, again.tuples_per_sec);
          }
          (sharing ? on : off) = r;
          char label[128];
          std::snprintf(label, sizeof(label),
                        "BM_MultiQuery/q:%zu/ov:%.1f/share:%s/shards:%zu",
                        queries, overlap, sharing ? "on" : "off", shards);
          std::printf("%-44s %14.0f %12llu %10llu %8zu\n", label,
                      r.tuples_per_sec,
                      static_cast<unsigned long long>(r.routed),
                      static_cast<unsigned long long>(r.shared_prefix_hits),
                      r.stages_shared);
          AddJsonEntry(label, batches, r.tuples_per_sec);
        }
        if (on.digest != off.digest || on.routed != off.routed) {
          std::fprintf(stderr,
                       "FAIL: sharing changed delivery at q=%zu ov=%.1f "
                       "shards=%zu (digest %llx vs %llx, routed %llu vs "
                       "%llu)\n",
                       queries, overlap, shards,
                       static_cast<unsigned long long>(on.digest),
                       static_cast<unsigned long long>(off.digest),
                       static_cast<unsigned long long>(on.routed),
                       static_cast<unsigned long long>(off.routed));
          ok = false;
        }
        const double ratio = off.tuples_per_sec > 0.0
                                 ? on.tuples_per_sec / off.tuples_per_sec
                                 : 0.0;
        char ratio_label[128];
        std::snprintf(ratio_label, sizeof(ratio_label),
                      "BM_MultiQueryShareRatio/q:%zu/ov:%.1f/shards:%zu",
                      queries, overlap, shards);
        std::printf("%-44s %13.2fx\n", ratio_label, ratio);
        AddJsonEntry(ratio_label, batches, ratio);
      }
      std::printf("\n");
    }
  }
  if (ok) {
    std::printf("delivered-stream digests byte-exact sharing on vs off in "
                "every configuration\n");
    AddJsonEntry("BM_MultiQueryDigestMatch", 27, 1.0);
  }
  return ok;
}

// ------------------------------------------------------ route-LUT churn bench

/// Cancel-heavy single-fabricator regression: under the incremental LUT
/// maintenance, per-churn-event cost is one slot patch, and full rebuilds
/// stay rare (hole compaction / attribute-set changes only). A regression
/// back to rebuild-per-churn-event shows up as a rebuild count near the
/// churn-event count and a throughput collapse.
bool RunChurnBench(std::size_t batches, std::size_t batch_size) {
  bench::WorkloadConfig wc =
      SweepWorkload(/*queries=*/192, /*overlap=*/0.5, batches, batch_size);
  wc.churn_fraction = 0.9;  // nearly every arrival is paired with a cancel
  const bench::WorkloadGenerator gen(wc);
  const auto tuple_batches = gen.MakeBatches();

  auto fab = fabric::StreamFabricator::Make(BenchGrid(),
                                            BenchFabricConfig(true))
                 .MoveValue();
  std::map<std::size_t, fabric::QueryStream> streams;
  const auto& schedule = gen.schedule();
  std::size_t cursor = 0;
  std::size_t churn_events = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < tuple_batches.size(); ++b) {
    for (; cursor < schedule.size() && schedule[cursor].at_batch <= b;
         ++cursor) {
      const bench::QueryEvent& ev = schedule[cursor];
      ++churn_events;
      if (ev.kind == bench::QueryEvent::Kind::kInsert) {
        auto stream = fab->InsertQuery(ev.spec.attribute, ev.spec.region,
                                       ev.spec.rate);
        if (!stream.ok()) {
          std::fprintf(stderr, "InsertQuery failed\n");
          return false;
        }
        streams.emplace(ev.slot, stream.MoveValue());
      } else {
        const auto it = streams.find(ev.slot);
        if (it == streams.end() || !fab->RemoveQuery(it->second.id).ok()) {
          std::fprintf(stderr, "RemoveQuery failed\n");
          return false;
        }
        streams.erase(it);
      }
    }
    ops::TupleBatch batch(tuple_batches[b]);
    if (!fab->ProcessBatch(batch).ok()) {
      std::fprintf(stderr, "ProcessBatch failed\n");
      return false;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  const double tuples_per_sec =
      seconds > 0.0
          ? static_cast<double>(batches * batch_size) / seconds
          : 0.0;

  std::printf("route-LUT churn regression (1 fabricator, churn 0.9)\n");
  std::printf("  %zu churn events over %zu batches x %zu tuples\n",
              churn_events, batches, batch_size);
  std::printf("  tuples/sec:     %14.0f\n", tuples_per_sec);
  std::printf("  route patches:  %14llu (incremental slot writes)\n",
              static_cast<unsigned long long>(fab->route_patches()));
  std::printf("  route rebuilds: %14llu (full rows x cols sweeps)\n",
              static_cast<unsigned long long>(fab->route_rebuilds()));
  AddJsonEntry("BM_ChurnRouteMaintenance", churn_events, tuples_per_sec);
  // Trajectory guard: rebuilds per churn event (was ~1.0 before the
  // incremental path; the rate column carries the ratio).
  AddJsonEntry("BM_ChurnRouteRebuildsPerEvent", fab->route_rebuilds(),
               churn_events > 0
                   ? static_cast<double>(fab->route_rebuilds()) /
                         static_cast<double>(churn_events)
                   : 0.0);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ExtractJsonPath(&argc, argv);
  const std::string metrics_path =
      benchjson::ExtractFlagValue(&argc, argv, "--metrics-json");
  bool churn_only = false;
  if (argc > 1 && std::string(argv[1]) == "--churn") {
    churn_only = true;
    --argc;
    ++argv;
  }
  constexpr std::size_t kMaxArg = 1u << 24;
  const auto parse_arg = [&](int index, std::size_t fallback) {
    if (argc <= index) {
      return fallback;
    }
    const std::string text = argv[index];
    std::size_t value = 0;
    try {
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument(text);
      }
      value = static_cast<std::size_t>(std::stoul(text));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "invalid argument '%s' (expected 0..%zu)\n"
                   "usage: %s [--churn] [--json <path>] [batches] "
                   "[batch_size]\n",
                   argv[index], kMaxArg, argv[0]);
      std::exit(2);
    }
    return std::min(value, kMaxArg);
  };
  const std::size_t batches = parse_arg(1, churn_only ? 96u : 256u);
  const std::size_t batch_size = parse_arg(2, churn_only ? 512u : 256u);

  const bool ok = churn_only ? RunChurnBench(batches, batch_size)
                             : RunSharingSweep(batches, batch_size);
  if (ok && !json_path.empty()) {
    benchjson::WriteEntries(json_path, g_json_entries);
  }
  if (ok && !metrics_path.empty()) {
    const craqr::Status status =
        craqr::obs::MetricsExporter::WriteJsonSnapshot(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write metrics snapshot: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
