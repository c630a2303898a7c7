/// \file bench_operator_throughput.cc
/// \brief Experiment E9 — raw PMAT operator throughput (google-benchmark).
///
/// The paper claims PMAT operators "can be implemented using only a few
/// lines of code"; this micro-bench quantifies the flip side — their
/// per-tuple cost — for every operator kind and for chains of increasing
/// depth (the shape query insertion produces).
///
/// Every operator is driven through `PushBatch`, its only entry point.
/// The single-operator rows (BM_PassThrough, BM_Thin, BM_Partition,
/// BM_Union, BM_FlattenBatch, BM_FlattenOnline) push batches of
/// kOpBatchSize tuples; in BENCH files up to BENCH_PR16.json the rows of
/// those names pushed one tuple per iteration, so the two series are not
/// comparable. BM_Fig2TopologyBatch, BM_ThinChainDepthBatch and
/// BM_StringFlattenChainBatch time the cell-chain shapes query insertion
/// builds.
///
/// The `...SweepScalar` / `...SweepMask` pairs isolate the PR-5 selection
/// kernels: the per-row branchy RNG / containment sweeps (the pre-PR
/// implementations, inlined here as references) against the branch-free
/// mask + compact kernels the operators now run. BM_RouteHistogram logs
/// the fabricator's histogram routing pass end to end.
///
/// `--json <path>` additionally writes every result as
/// `{name, iters, ns_per_op, tuples_per_sec}` — the format of the
/// repo-level BENCH_*.json perf trajectory the release-bench CI job
/// uploads.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/simd.h"
#include "fabric/fabricator.h"
#include "obs/metrics.h"
#include "ops/extras.h"
#include "ops/flatten.h"
#include "ops/partition.h"
#include "ops/pipeline.h"
#include "ops/thin.h"
#include "ops/union_op.h"

namespace {

using namespace craqr;  // NOLINT

std::vector<ops::Tuple> MakeTuples(std::size_t n) {
  Rng rng(77);
  std::vector<ops::Tuple> tuples;
  tuples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple t;
    t.id = i;
    t.point = geom::SpaceTimePoint{static_cast<double>(i) * 0.01,
                                   rng.Uniform(0.0, 4.0),
                                   rng.Uniform(0.0, 4.0)};
    tuples.push_back(t);
  }
  return tuples;
}

/// Tuples per pushed batch in the single-operator rows.
constexpr std::size_t kOpBatchSize = 256;

/// Pushes `tuples` through `op` as one refilled batch per iteration; the
/// refill copy is part of the measured cost, as in the chain rows below.
void PushBatches(benchmark::State& state, ops::Operator* op,
                 const std::vector<ops::Tuple>& tuples) {
  ops::TupleBatch batch;
  for (auto _ : state) {
    batch.Assign(tuples);
    benchmark::DoNotOptimize(op->PushBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tuples.size()));
}

void BM_PassThrough(benchmark::State& state) {
  auto op = ops::PassThroughOperator::Make("id").MoveValue();
  PushBatches(state, op.get(), MakeTuples(kOpBatchSize));
}
BENCHMARK(BM_PassThrough);

void BM_Thin(benchmark::State& state) {
  auto op = ops::ThinOperator::Make("t", 10.0, 5.0, Rng(1)).MoveValue();
  PushBatches(state, op.get(), MakeTuples(kOpBatchSize));
}
BENCHMARK(BM_Thin);

void BM_Partition(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<geom::Rect> regions;
  std::vector<std::unique_ptr<ops::SinkOperator>> sinks;
  const double width = 4.0 / static_cast<double>(k);
  for (std::size_t i = 0; i < k; ++i) {
    regions.emplace_back(static_cast<double>(i) * width, 0.0,
                         static_cast<double>(i + 1) * width, 4.0);
  }
  auto op = ops::PartitionOperator::Make("p", regions).MoveValue();
  for (std::size_t i = 0; i < k; ++i) {
    sinks.push_back(ops::SinkOperator::Make("s", 1024).MoveValue());
    op->AddOutput(sinks.back().get());
  }
  PushBatches(state, op.get(), MakeTuples(kOpBatchSize));
}
BENCHMARK(BM_Partition)->Arg(2)->Arg(4)->Arg(16);

void BM_Union(benchmark::State& state) {
  auto op = ops::UnionOperator::Make(
                "u", {geom::Rect(0, 0, 2, 4), geom::Rect(2, 0, 4, 4)})
                .MoveValue();
  PushBatches(state, op.get(), MakeTuples(kOpBatchSize));
}
BENCHMARK(BM_Union);

void BM_FlattenBatch(benchmark::State& state) {
  ops::FlattenConfig config;
  config.region = geom::Rect(0, 0, 4, 4);
  config.target_rate = 1.0;
  config.batch_size = static_cast<std::size_t>(state.range(0));
  auto op = ops::FlattenOperator::Make("f", config, Rng(2)).MoveValue();
  PushBatches(state, op.get(), MakeTuples(kOpBatchSize));
}
BENCHMARK(BM_FlattenBatch)->Arg(64)->Arg(256)->Arg(1024);

void BM_FlattenOnline(benchmark::State& state) {
  ops::FlattenConfig config;
  config.region = geom::Rect(0, 0, 4, 4);
  config.target_rate = 1.0;
  config.mode = ops::FlattenMode::kOnline;
  auto op = ops::FlattenOperator::Make("f", config, Rng(3)).MoveValue();
  // Monotone time required by the online estimator: every batch carries
  // fresh positions at times after the previous batch's.
  Rng rng(4);
  double t = 0.0;
  ops::TupleBatch batch;
  ops::Tuple tuple;
  for (auto _ : state) {
    batch.Clear();
    for (std::size_t i = 0; i < kOpBatchSize; ++i) {
      t += 0.001;
      tuple.point = geom::SpaceTimePoint{t, rng.Uniform(0.0, 4.0),
                                         rng.Uniform(0.0, 4.0)};
      batch.Append(tuple);
    }
    benchmark::DoNotOptimize(op->PushBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kOpBatchSize));
}
BENCHMARK(BM_FlattenOnline);

// ---------------------------------------------------------------------------
// Cell-chain shapes

/// The Fig-2 cell-chain shape: a 3-deep descending T chain into P (two
/// branches) into U, delivered through a rate monitor into a sink. The F
/// head is deliberately omitted: in the paper's primary kBatch
/// formulation F buffers and re-batches the stream, so it would only add
/// a large constant (BM_StringFlattenChainBatch times an online F head).
struct Fig2Topology {
  ops::Pipeline pipeline;
  ops::ThinOperator* head = nullptr;
  ops::SinkOperator* sink = nullptr;
};

Fig2Topology MakeFig2Topology() {
  Fig2Topology topo;
  // Realistic post-F retention ratios: consecutive query rates are close,
  // so most tuples survive deep into the chain.
  topo.head = topo.pipeline.Add(
      ops::ThinOperator::Make("t1", 20.0, 17.0, Rng(22)).MoveValue());
  auto* t2 = topo.pipeline.Add(
      ops::ThinOperator::Make("t2", 17.0, 14.0, Rng(23)).MoveValue());
  auto* t3 = topo.pipeline.Add(
      ops::ThinOperator::Make("t3", 14.0, 11.0, Rng(24)).MoveValue());
  auto* p = topo.pipeline.Add(
      ops::PartitionOperator::Make(
          "p", {geom::Rect(0, 0, 2, 4), geom::Rect(2, 0, 4, 4)})
          .MoveValue());
  auto* u = topo.pipeline.Add(
      ops::UnionOperator::Make(
          "u", {geom::Rect(0, 0, 2, 4), geom::Rect(2, 0, 4, 4)})
          .MoveValue());
  auto* mon = topo.pipeline.Add(
      ops::RateMonitorOperator::Make("mon", 1.0, 16.0).MoveValue());
  topo.sink = topo.pipeline.Add(ops::SinkOperator::Make("sink").MoveValue());
  topo.head->AddOutput(t2);
  t2->AddOutput(t3);
  t3->AddOutput(p);
  p->AddOutput(u);
  p->AddOutput(u);
  u->AddOutput(mon);
  mon->AddOutput(topo.sink);
  return topo;
}

constexpr std::size_t kFig2BatchSize = 256;

void BM_Fig2TopologyBatch(benchmark::State& state) {
  Fig2Topology topo = MakeFig2Topology();
  const auto tuples = MakeTuples(kFig2BatchSize);
  ops::TupleBatch batch;
  for (auto _ : state) {
    // The refill copy is part of the measured cost — the fabricator's
    // routing pass pays the same copy when it builds per-chain batches.
    batch.Assign(tuples);
    benchmark::DoNotOptimize(topo.head->PushBatch(batch));
    topo.sink->Clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFig2BatchSize));
}
BENCHMARK(BM_Fig2TopologyBatch);

void BM_ThinChainDepthBatch(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  ops::Pipeline pipeline;
  std::vector<ops::ThinOperator*> chain;
  double rate = 1024.0;
  for (std::size_t i = 0; i < depth; ++i) {
    auto thin = ops::ThinOperator::Make("t" + std::to_string(i), rate,
                                        rate / 2.0, Rng(10 + i))
                    .MoveValue();
    rate /= 2.0;
    chain.push_back(pipeline.Add(std::move(thin)));
    if (i > 0) {
      chain[i - 1]->AddOutput(chain[i]);
    }
  }
  const auto tuples = MakeTuples(kFig2BatchSize);
  ops::TupleBatch batch;
  for (auto _ : state) {
    batch.Assign(tuples);
    benchmark::DoNotOptimize(chain.front()->PushBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFig2BatchSize));
}
BENCHMARK(BM_ThinChainDepthBatch)->Arg(1)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// String-carrying Flatten chain: the columnar-payload case
//
// Every tuple carries a categorical string value. Before the columnar
// refactor each hop moved a ~90-byte tuple with a std::string inside its
// variant; now values are 12-byte interned PayloadRef handles, so the
// Flatten buffer append, the retain sweep and the sink store never touch
// string bytes.

std::vector<ops::Tuple> MakeStringTuples(std::size_t n) {
  static const char* kCategories[7] = {"clear", "drizzle", "rain", "downpour",
                                       "hail",  "sleet",   "fog"};
  Rng rng(78);
  std::vector<ops::Tuple> tuples;
  tuples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple t;
    t.id = i;
    t.sensor_id = 100 + (i % 17);
    t.point = geom::SpaceTimePoint{static_cast<double>(i) * 0.01,
                                   rng.Uniform(0.0, 4.0),
                                   rng.Uniform(0.0, 4.0)};
    t.value = ops::PayloadRef::String(kCategories[i % 7]);
    tuples.push_back(t);
  }
  return tuples;
}

/// The string-carrying Fig-2/Flatten chain: an online F head into the
/// Fig-2 cell-chain shape (descending T chain -> P -> U -> Mon -> sink),
/// every tuple carrying a categorical string payload. F runs in kOnline
/// mode: one estimator/RNG sweep that deselects drops in place, so the
/// chain below it sees whole selected batches.
struct StringFlattenChain {
  ops::Pipeline pipeline;
  ops::FlattenOperator* head = nullptr;
  ops::SinkOperator* sink = nullptr;
};

StringFlattenChain MakeStringFlattenChain() {
  StringFlattenChain topo;
  ops::FlattenConfig config;
  config.region = geom::Rect(0, 0, 4, 4);
  config.mode = ops::FlattenMode::kOnline;
  config.target_rate = 1000.0;  // retain ~everything: worst case for moves
  config.target_mode = ops::FlattenTargetMode::kRatePerVolume;
  topo.head = topo.pipeline.Add(
      ops::FlattenOperator::Make("f", config, Rng(31)).MoveValue());
  // A 6-deep descending T chain with close consecutive rates — the shape
  // six near-rate queries on one cell produce (most tuples survive to the
  // bottom).
  std::vector<ops::ThinOperator*> thins;
  double rate = 20.0;
  for (int i = 0; i < 6; ++i) {
    auto thin = ops::ThinOperator::Make("t" + std::to_string(i + 1), rate,
                                        rate - 1.0, Rng(32 + i))
                    .MoveValue();
    rate -= 1.0;
    thins.push_back(topo.pipeline.Add(std::move(thin)));
    if (i > 0) {
      thins[i - 1]->AddOutput(thins[i]);
    }
  }
  auto* p = topo.pipeline.Add(
      ops::PartitionOperator::Make(
          "p", {geom::Rect(0, 0, 2, 4), geom::Rect(2, 0, 4, 4)})
          .MoveValue());
  auto* u = topo.pipeline.Add(
      ops::UnionOperator::Make(
          "u", {geom::Rect(0, 0, 2, 4), geom::Rect(2, 0, 4, 4)})
          .MoveValue());
  auto* mon = topo.pipeline.Add(
      ops::RateMonitorOperator::Make("mon", 1.0, 16.0).MoveValue());
  topo.sink = topo.pipeline.Add(ops::SinkOperator::Make("sink").MoveValue());
  topo.head->AddOutput(thins.front());
  thins.back()->AddOutput(p);
  p->AddOutput(u);
  p->AddOutput(u);
  u->AddOutput(mon);
  mon->AddOutput(topo.sink);
  return topo;
}

void BM_StringFlattenChainBatch(benchmark::State& state) {
  StringFlattenChain topo = MakeStringFlattenChain();
  const auto tuples = MakeStringTuples(kFig2BatchSize);
  ops::TupleBatch batch;
  for (auto _ : state) {
    batch.Assign(tuples);
    benchmark::DoNotOptimize(topo.head->PushBatch(batch));
    topo.sink->Clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFig2BatchSize));
}
BENCHMARK(BM_StringFlattenChainBatch);

// ---------------------------------------------------------------------------
// PR-5 selection kernels: branchy scalar sweep vs branch-free mask sweep
//
// Each pair runs the identical decision over the identical batch; only
// the kernel differs. Scalar = the pre-vectorization per-row
// implementation (branch per tuple, per-row RNG call / region loop),
// Mask = the batch mask fill + compact the operators now run.

constexpr std::size_t kSweepBatchSize = 4096;

void BM_ThinSweepScalar(benchmark::State& state) {
  const auto tuples = MakeTuples(kSweepBatchSize);
  const double p = 0.7;
  Rng rng(91);
  ops::TupleBatch batch;
  for (auto _ : state) {
    batch.Assign(tuples);
    // The pre-PR sweep: per-row RNG call, double conversion + compare,
    // branch per tuple.
    batch.RetainRaw([&rng, p](std::uint32_t) { return rng.Uniform() < p; });
    benchmark::DoNotOptimize(batch.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepBatchSize));
}
BENCHMARK(BM_ThinSweepScalar);

void BM_ThinSweepMask(benchmark::State& state) {
  const auto tuples = MakeTuples(kSweepBatchSize);
  const double p = 0.7;
  Rng rng(91);
  ops::TupleBatch batch;
  std::vector<std::uint8_t> mask(kSweepBatchSize);
  for (auto _ : state) {
    batch.Assign(tuples);
    rng.FillBernoulliMask(p, {mask.data(), kSweepBatchSize});
    batch.RetainFromMask({mask.data(), kSweepBatchSize});
    benchmark::DoNotOptimize(batch.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepBatchSize));
}
BENCHMARK(BM_ThinSweepMask);

// Metrics-overhead probe: the identical 4-deep Thin chain per-batch push
// with the obs registry runtime-enabled (Arg 1) vs runtime-disabled
// (Arg 0). Every PushBatch crosses CountIn -> RecordDispatch (counter
// adds + one histogram Record per operator), so the delta between the
// two rows is the whole per-dispatch observability cost. Target: < 3%.
void BM_MetricsOverhead(benchmark::State& state) {
  const bool was_enabled = obs::IsEnabled();
  obs::SetEnabled(state.range(0) != 0);
  ops::Pipeline pipeline;
  std::vector<ops::ThinOperator*> chain;
  double rate = 1024.0;
  for (std::size_t i = 0; i < 4; ++i) {
    auto thin = ops::ThinOperator::Make("t" + std::to_string(i), rate,
                                        rate / 2.0, Rng(10 + i))
                    .MoveValue();
    rate /= 2.0;
    chain.push_back(pipeline.Add(std::move(thin)));
    if (i > 0) {
      chain[i - 1]->AddOutput(chain[i]);
    }
  }
  const auto tuples = MakeTuples(kSweepBatchSize);
  ops::TupleBatch batch;
  for (auto _ : state) {
    batch.Assign(tuples);
    benchmark::DoNotOptimize(chain.front()->PushBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepBatchSize));
  obs::SetEnabled(was_enabled);
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

std::vector<geom::Rect> SweepStrips() {
  std::vector<geom::Rect> strips;
  for (int k = 0; k < 4; ++k) {
    strips.emplace_back(k * 1.0, 0.0, (k + 1) * 1.0, 4.0);
  }
  return strips;
}

/// The benchmark argument is the number of connected output ports. 1 is
/// the shape query insertion actually builds (a P carving one overlap
/// region out of a cell, complement ports unconnected); 4 is the full
/// fan-out worst case for the mask kernels (every region needs a mask +
/// compact, where the scalar loop early-exits).
void BM_PartitionSweepScalar(benchmark::State& state) {
  const auto connected = static_cast<std::size_t>(state.range(0));
  const auto tuples = MakeTuples(kSweepBatchSize);
  const auto strips = SweepStrips();
  const ops::TupleBatch batch(tuples);
  std::vector<std::vector<std::uint32_t>> ports(strips.size());
  std::uint64_t unrouted = 0;
  for (auto _ : state) {
    // The pre-PR routing pass: per-row region loop with early exit and a
    // branch per region test.
    batch.ForEachRaw([&](std::uint32_t idx) {
      const geom::SpaceTimePoint& p = batch.point_at(idx);
      for (std::size_t k = 0; k < strips.size(); ++k) {
        if (strips[k].Contains(p.x, p.y)) {
          if (k >= connected) {
            ++unrouted;
          } else {
            ports[k].push_back(idx);
          }
          return;
        }
      }
      ++unrouted;
    });
    for (auto& port : ports) {
      benchmark::DoNotOptimize(port.size());
      port.clear();
    }
  }
  benchmark::DoNotOptimize(unrouted);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepBatchSize));
}
BENCHMARK(BM_PartitionSweepScalar)->Arg(1)->Arg(4);

void BM_PartitionSweepMask(benchmark::State& state) {
  const auto connected = static_cast<std::size_t>(state.range(0));
  const auto tuples = MakeTuples(kSweepBatchSize);
  const auto strips = SweepStrips();
  const ops::TupleBatch batch(tuples);
  std::vector<std::vector<std::uint32_t>> ports(strips.size());
  std::vector<std::uint8_t> mask(kSweepBatchSize);
  std::uint64_t unrouted = 0;
  for (auto _ : state) {
    // The PR-5 routing pass: one branch-free containment mask + compact
    // per *connected* region; everything unclaimed is unrouted by
    // subtraction (regions are disjoint).
    std::size_t routed = 0;
    for (std::size_t k = 0; k < connected; ++k) {
      strips[k].ContainsMask(batch.RawPoints(), mask.data());
      batch.GatherActiveWhere({mask.data(), kSweepBatchSize}, &ports[k]);
      routed += ports[k].size();
    }
    unrouted += kSweepBatchSize - routed;
    for (auto& port : ports) {
      benchmark::DoNotOptimize(port.size());
      port.clear();
    }
  }
  benchmark::DoNotOptimize(unrouted);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepBatchSize));
}
BENCHMARK(BM_PartitionSweepMask)->Arg(1)->Arg(4);

// ---------------------------------------------------------------------------
// Histogram routing: the fabricator's single-pass
// count -> prefix-sum -> scatter map phase, end to end (routing + the
// per-chain selection handoff + chain processing), on a multi-cell
// multi-attribute topology. Logged by release-bench as the
// routing-throughput trajectory.

void BM_RouteHistogram(benchmark::State& state) {
  const auto grid =
      geom::Grid::Make(geom::Rect(0, 0, 8, 8), 16).MoveValue();
  fabric::FabricConfig config;
  config.flatten_batch_size = 64;
  config.seed = 0xBE7CB;
  auto fab = fabric::StreamFabricator::Make(grid, config).MoveValue();
  for (int a = 0; a < 2; ++a) {
    if (!fab->InsertQuery(a, geom::Rect(0, 0, 8, 8), 2.0 + a).ok() ||
        !fab->InsertQuery(a, geom::Rect(0, 0, 4, 8), 1.0 + a).ok()) {
      state.SkipWithError("query insertion failed");
      return;
    }
  }
  Rng rng(7);
  std::vector<ops::Tuple> tuples;
  tuples.reserve(kSweepBatchSize);
  double t = 0.0;
  for (std::size_t i = 0; i < kSweepBatchSize; ++i) {
    ops::Tuple tuple;
    tuple.id = i + 1;
    tuple.attribute = i % 2;
    t += 0.001;
    tuple.point = geom::SpaceTimePoint{t, rng.Uniform(0.0, 8.5),
                                       rng.Uniform(0.0, 8.5)};
    tuples.push_back(tuple);
  }
  ops::TupleBatch batch;
  for (auto _ : state) {
    batch.Assign(tuples);
    if (!fab->ProcessBatch(batch).ok()) {
      state.SkipWithError("ProcessBatch failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepBatchSize));
}
BENCHMARK(BM_RouteHistogram);

// ---------------------------------------------------------------------------
// Custom main: console output as usual, plus `--json <path>` emitting the
// BENCH_*.json perf-trajectory format (bench_json.h).

/// Console reporter that additionally captures per-run entries for the
/// JSON emitter (aggregate rows are skipped).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      benchjson::Entry e;
      e.name = run.benchmark_name();
      e.iters = static_cast<std::uint64_t>(run.iterations);
      e.ns_per_op = run.iterations > 0
                        ? run.real_accumulated_time /
                              static_cast<double>(run.iterations) * 1e9
                        : 0.0;
      const auto it = run.counters.find("items_per_second");
      e.tuples_per_sec =
          it != run.counters.end() ? static_cast<double>(it->second) : 0.0;
      entries.push_back(std::move(e));
    }
  }
  std::vector<benchjson::Entry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = craqr::benchjson::ExtractJsonPath(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    craqr::benchjson::WriteEntries(json_path, reporter.entries);
  }
  return 0;
}
