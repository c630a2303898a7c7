/// \file bench_topology_maintenance.cc
/// \brief Experiment E10 — query insertion/deletion cost in the
/// fabricator's hashmap of cell topologies (paper Section V).
///
/// Measures (a) insert+delete round-trip latency as a function of the
/// number of resident queries, (b) insertion cost vs grid granularity h,
/// and (c) the map-phase routing cost of ProcessBatch per routed tuple
/// (batches of 256 since BENCH_PR18.json; earlier BENCH files timed one
/// tuple per iteration through a per-tuple entry point, so the two
/// series are not comparable).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "fabric/fabricator.h"

namespace {

using namespace craqr;  // NOLINT

geom::Grid MakeGrid(std::uint32_t h) {
  return geom::Grid::Make(geom::Rect(0, 0, 12, 12), h).MoveValue();
}

query::AcquisitionQuery RandomishQuery(int i) {
  query::AcquisitionQuery q;
  const double x = static_cast<double>(i % 8);
  const double y = static_cast<double>((i / 8) % 8);
  q.attribute = "temp";
  q.region = geom::Rect(x, y, x + 4.0, y + 4.0);
  q.rate = 0.5 + 0.25 * static_cast<double>(i % 7);
  return q;
}

void BM_InsertDeleteRoundTrip(benchmark::State& state) {
  const auto resident = static_cast<int>(state.range(0));
  auto fabricator = fabric::StreamFabricator::Make(MakeGrid(36)).MoveValue();
  for (int i = 0; i < resident; ++i) {
    const auto q = RandomishQuery(i);
    benchmark::DoNotOptimize(fabricator->InsertQuery(0, q.region, q.rate));
  }
  int i = resident;
  for (auto _ : state) {
    const auto q = RandomishQuery(i++);
    auto stream = fabricator->InsertQuery(0, q.region, q.rate).MoveValue();
    benchmark::DoNotOptimize(fabricator->RemoveQuery(stream.id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertDeleteRoundTrip)->Arg(0)->Arg(16)->Arg(128)->Arg(512);

void BM_InsertVsGridGranularity(benchmark::State& state) {
  const auto h = static_cast<std::uint32_t>(state.range(0));
  auto fabricator = fabric::StreamFabricator::Make(MakeGrid(h)).MoveValue();
  int i = 0;
  for (auto _ : state) {
    const auto q = RandomishQuery(i++);
    auto stream = fabricator->InsertQuery(0, q.region, q.rate).MoveValue();
    benchmark::DoNotOptimize(stream);
    state.PauseTiming();
    (void)fabricator->RemoveQuery(stream.id);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertVsGridGranularity)->Arg(9)->Arg(36)->Arg(144)->Arg(576);

void BM_MapPhaseRouting(benchmark::State& state) {
  const auto resident = static_cast<int>(state.range(0));
  auto fabricator = fabric::StreamFabricator::Make(MakeGrid(144)).MoveValue();
  for (int i = 0; i < resident; ++i) {
    const auto q = RandomishQuery(i);
    benchmark::DoNotOptimize(fabricator->InsertQuery(0, q.region, q.rate));
  }
  // One handler-sized batch per iteration, at advancing times; each
  // ProcessBatch also flushes every topology (the batch boundary).
  constexpr std::size_t kBatchSize = 256;
  Rng rng(5);
  double t = 0.0;
  ops::TupleBatch batch;
  ops::Tuple tuple;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      t += 0.001;
      tuple.point = geom::SpaceTimePoint{t, rng.Uniform(0.0, 12.0),
                                         rng.Uniform(0.0, 12.0)};
      batch.Append(tuple);
    }
    benchmark::DoNotOptimize(fabricator->ProcessBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchSize));
}
BENCHMARK(BM_MapPhaseRouting)->Arg(1)->Arg(32)->Arg(256);

}  // namespace
