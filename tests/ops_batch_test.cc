#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fabric/fabricator.h"
#include "ops/extras.h"
#include "ops/flatten.h"
#include "ops/partition.h"
#include "ops/thin.h"
#include "ops/tuple_batch.h"
#include "ops/union_op.h"
#include "runtime/sharded_fabricator.h"

/// \file ops_batch_test.cc
/// \brief Batch execution pins: every operator — and the whole
/// fabricator / sharded runtime stack — delivers pinned streams with
/// pinned OperatorStats accounting, Flush-at-boundary semantics and
/// (time-sorted) violation-report replay. The pins were recorded from a
/// tuple-at-a-time reference path, and the drivers cut the same streams
/// into ragged batches, so they also hold every operator to delivering
/// the same stream wherever its input is cut.

namespace craqr {
namespace ops {
namespace {

constexpr AttributeId kRain = 0;
constexpr AttributeId kTemp = 1;

bool SameTuple(const Tuple& a, const Tuple& b) {
  return a.id == b.id && a.attribute == b.attribute && a.point == b.point &&
         a.value == b.value && a.sensor_id == b.sensor_id;
}

/// FNV-1a digest of a delivered stream (the fold ops_vectorized_test
/// and core_engine_test pin with).
std::uint64_t FnvFold(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t StreamDigest(const std::vector<Tuple>& tuples) {
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
    const std::string rendered = PayloadToString(tuple.value);
    h = FnvFold(h, rendered.data(), rendered.size());
  }
  return h;
}

/// FNV-1a digest of a Flatten report sequence: batch size, retained and
/// violation counts, and the completion time of every firing.
std::uint64_t ReportDigest(const std::vector<FlattenBatchReport>& reports) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const FlattenBatchReport& r : reports) {
    const std::uint64_t counts[3] = {r.n, r.retained, r.violations};
    h = FnvFold(h, counts, sizeof(counts));
    h = FnvFold(h, &r.completed_at, sizeof(r.completed_at));
  }
  return h;
}

/// Expects an operator's throughput counters to equal pinned values.
void ExpectStats(const Operator& op, std::uint64_t in, std::uint64_t out) {
  EXPECT_EQ(op.stats().tuples_in, in) << op.name();
  EXPECT_EQ(op.stats().tuples_out, out) << op.name();
}

void ExpectSameTuples(const std::vector<Tuple>& a,
                      const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(SameTuple(a[i], b[i])) << "tuple " << i << " differs";
  }
}

/// Deterministic stream of `n` tuples with monotone times, mixed
/// attributes and non-trivial values.
std::vector<Tuple> MakeStream(std::size_t n, double span = 4.0) {
  Rng rng(4242);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t;
    t.id = i + 1;
    t.attribute = (i % 3 == 0) ? kTemp : kRain;
    t.sensor_id = 100 + (i % 17);
    t.point = geom::SpaceTimePoint{static_cast<double>(i) * 0.01,
                                   rng.Uniform(0.0, span),
                                   rng.Uniform(0.0, span)};
    t.value = (i % 2 == 0) ? AttributeValue{static_cast<double>(i) * 0.5}
                           : AttributeValue{i % 4 == 1};
    tuples.push_back(t);
  }
  return tuples;
}

/// Drives `head` with the stream as batches of varying sizes
/// (exercising batch boundaries that do not line up with anything).
void DriveBatched(Operator* head, const std::vector<Tuple>& stream) {
  const std::size_t sizes[] = {1, 7, 64, 3, 129, 31};
  std::size_t offset = 0;
  std::size_t s = 0;
  TupleBatch batch;
  while (offset < stream.size()) {
    const std::size_t take =
        std::min(sizes[s++ % 6], stream.size() - offset);
    batch.Clear();
    for (std::size_t i = 0; i < take; ++i) {
      batch.Append(stream[offset + i]);
    }
    offset += take;
    ASSERT_TRUE(head->PushBatch(batch).ok());
  }
}

// ---------------------------------------------------------------------------
// TupleBatch container behavior

TEST(TupleBatchTest, ClearRecyclesCapacityAndSwapIsCheap) {
  TupleBatch batch;
  batch.Reserve(256);
  for (const Tuple& t : MakeStream(200)) {
    batch.Append(t);
  }
  const std::size_t capacity = batch.Capacity();
  EXPECT_GE(capacity, 256u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.Capacity(), capacity);

  TupleBatch other;
  other.Append(MakeStream(1)[0]);
  batch.Swap(other);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_TRUE(other.empty());
  EXPECT_EQ(other.Capacity(), capacity);
}

TEST(TupleBatchTest, ColumnViewsGatherHotFields) {
  const auto stream = MakeStream(50);
  TupleBatch batch(stream);
  std::vector<std::uint64_t> ids, sensors;
  std::vector<AttributeId> attributes;
  std::vector<geom::SpaceTimePoint> points;
  batch.CollectIds(&ids);
  batch.CollectAttributes(&attributes);
  batch.CollectPoints(&points);
  batch.CollectSensorIds(&sensors);
  ASSERT_EQ(ids.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(ids[i], stream[i].id);
    EXPECT_EQ(attributes[i], stream[i].attribute);
    EXPECT_TRUE(points[i] == stream[i].point);
    EXPECT_EQ(sensors[i], stream[i].sensor_id);
  }
  // On a plain batch the spans are zero-copy windows over the columns.
  ASSERT_EQ(batch.Points().size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(batch.Points()[i] == stream[i].point);
    EXPECT_EQ(batch.Ids()[i], stream[i].id);
    EXPECT_TRUE(batch.Values()[i] == stream[i].value);
  }
}

// ---------------------------------------------------------------------------
// Per-operator pins: ragged batches against the tuple-at-a-time digests

TEST(BatchEquivalenceTest, Thin) {
  auto thin = ThinOperator::Make("t", 10.0, 4.0, Rng(7)).MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  thin->AddOutput(sink.get());
  DriveBatched(thin.get(), MakeStream(700));
  EXPECT_EQ(StreamDigest(sink->tuples()), 2052579215025289826ULL);
  ExpectStats(*thin, 700, 268);
  ExpectStats(*sink, 268, 0);
}

TEST(BatchEquivalenceTest, FilterAndMap) {
  const auto predicate = [](const Tuple& t) { return t.point.x < 2.0; };
  const auto transform = [](const Tuple& t) {
    Tuple out = t;
    out.sensor_id = 0;  // anonymise
    return out;
  };
  auto filter = FilterOperator::Make("f", predicate).MoveValue();
  auto map = MapOperator::Make("m", transform).MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  filter->AddOutput(map.get());
  map->AddOutput(sink.get());
  DriveBatched(filter.get(), MakeStream(500));
  EXPECT_EQ(StreamDigest(sink->tuples()), 17487618854461063554ULL);
  ExpectStats(*filter, 500, 238);
  ExpectStats(*map, 238, 238);
}

TEST(BatchEquivalenceTest, PartitionRoutesAndCountsUnrouted) {
  // Three regions; only two connected, so the third's tuples count as
  // unrouted.
  const std::vector<geom::Rect> regions = {geom::Rect(0, 0, 1.5, 4),
                                           geom::Rect(1.5, 0, 3, 4),
                                           geom::Rect(3, 0, 4, 4)};
  auto partition = PartitionOperator::Make("p", regions).MoveValue();
  auto s0 = SinkOperator::Make("s0").MoveValue();
  auto s1 = SinkOperator::Make("s1").MoveValue();
  partition->AddOutput(s0.get());
  partition->AddOutput(s1.get());
  DriveBatched(partition.get(), MakeStream(600));
  EXPECT_EQ(StreamDigest(s0->tuples()), 16768332196704450918ULL);
  EXPECT_EQ(StreamDigest(s1->tuples()), 17792859147379013510ULL);
  ExpectStats(*partition, 600, 451);
  EXPECT_EQ(partition->unrouted(), 149u);
}

TEST(BatchEquivalenceTest, UnionSuperposePassThroughBroadcast) {
  auto u = UnionOperator::Make(
               "u", {geom::Rect(0, 0, 2, 4), geom::Rect(2, 0, 4, 4)})
               .MoveValue();
  auto pass = PassThroughOperator::Make("id").MoveValue();
  auto superpose = SuperposeOperator::Make("x").MoveValue();
  // Branching point: the pass-through broadcasts to two outputs, so it
  // must copy for the first and may move only for the last.
  auto s1 = SinkOperator::Make("s1").MoveValue();
  auto s2 = SinkOperator::Make("s2").MoveValue();
  u->AddOutput(pass.get());
  pass->AddOutput(s1.get());
  pass->AddOutput(superpose.get());
  superpose->AddOutput(s2.get());
  DriveBatched(u.get(), MakeStream(400));
  EXPECT_EQ(StreamDigest(s1->tuples()), 10922601581266753348ULL);
  EXPECT_EQ(StreamDigest(s2->tuples()), 10922601581266753348ULL);
  ExpectStats(*u, 400, 400);
  ExpectStats(*pass, 400, 400);
  ExpectStats(*superpose, 400, 400);
  EXPECT_EQ(u->out_of_region(), 0u);
}

TEST(BatchEquivalenceTest, RateMonitorWindows) {
  auto monitor = RateMonitorOperator::Make("m", 0.5, 16.0).MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  monitor->AddOutput(sink.get());
  DriveBatched(monitor.get(), MakeStream(500));
  EXPECT_EQ(StreamDigest(sink->tuples()), 2057073426172552357ULL);
  ExpectStats(*monitor, 500, 500);
  EXPECT_EQ(monitor->window_rates().count(), 9u);
  EXPECT_DOUBLE_EQ(monitor->MeanRate(), 6.25);
}

TEST(BatchEquivalenceTest, SinkEvictionBoundaries) {
  // A tiny capacity makes eviction fire repeatedly, at arrivals that do
  // not line up with the driver's batch cuts.
  auto sink = SinkOperator::Make("s", 37).MoveValue();
  DriveBatched(sink.get(), MakeStream(400));
  EXPECT_EQ(StreamDigest(sink->tuples()), 17323866322329031844ULL);
  EXPECT_EQ(sink->tuples().size(), 20u);
  ExpectStats(*sink, 400, 0);
  EXPECT_EQ(sink->total_received(), 400u);
}

TEST(BatchEquivalenceTest, FlattenBatchModeWithDiscardSideOutput) {
  FlattenConfig config;
  config.region = geom::Rect(0, 0, 4, 4);
  config.target_rate = 20.0;
  config.batch_size = 96;  // does not divide any driver batch size
  auto flatten = FlattenOperator::Make("f", config, Rng(11)).MoveValue();
  auto kept = SinkOperator::Make("kept").MoveValue();
  auto discarded = SinkOperator::Make("discarded").MoveValue();
  flatten->AddOutput(kept.get());
  flatten->SetDiscardedOutput(discarded.get());
  std::vector<FlattenBatchReport> reports;
  flatten->SetReportCallback(
      [&reports](const FlattenBatchReport& r) { reports.push_back(r); });

  const auto stream = MakeStream(700);
  DriveBatched(flatten.get(), stream);
  ASSERT_TRUE(flatten->Flush().ok());

  EXPECT_EQ(StreamDigest(kept->tuples()), 11307885544392380829ULL);
  EXPECT_EQ(StreamDigest(discarded->tuples()),
            14695981039346656037ULL);  // empty
  ExpectStats(*flatten, 700, 700);
  EXPECT_EQ(ReportDigest(reports), 16308277531118930073ULL);
  // Every retained or discarded tuple is accounted for; nothing vanishes.
  EXPECT_EQ(kept->total_received() + discarded->total_received(),
            stream.size());
  ASSERT_GT(reports.size(), 0u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    // The stamp is the batch's completing tuple time (monotone stream).
    EXPECT_GT(reports[i].completed_at, 0.0);
    if (i > 0) {
      EXPECT_GE(reports[i].completed_at, reports[i - 1].completed_at);
    }
  }
}

TEST(BatchEquivalenceTest, FlattenOnlineMode) {
  FlattenConfig config;
  config.region = geom::Rect(0, 0, 4, 4);
  config.target_rate = 30.0;
  config.mode = FlattenMode::kOnline;
  config.violation_window = 128;
  auto flatten = FlattenOperator::Make("f", config, Rng(13)).MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  flatten->AddOutput(sink.get());
  DriveBatched(flatten.get(), MakeStream(600));
  EXPECT_EQ(StreamDigest(sink->tuples()), 12273841197502486184ULL);
  ExpectStats(*flatten, 600, 600);
  EXPECT_DOUBLE_EQ(flatten->last_violation_percent(), 100.0);
}

// ---------------------------------------------------------------------------
// Flush-at-batch-boundary semantics for buffering operators

TEST(BatchFlushTest, FlattenReleasesPartialBufferOnFlushOnly) {
  FlattenConfig config;
  config.region = geom::Rect(0, 0, 4, 4);
  config.target_rate = 1000.0;  // retain ~everything
  config.batch_size = 64;
  auto op = FlattenOperator::Make("f", config, Rng(3)).MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  op->AddOutput(sink.get());

  // 100 tuples in one batch: one firing at 64, 36 stay buffered.
  const auto stream = MakeStream(100);
  TupleBatch batch(stream);
  ASSERT_TRUE(op->PushBatch(batch).ok());
  EXPECT_EQ(op->stats().tuples_in, 100u);
  EXPECT_LE(sink->total_received(), 64u);
  EXPECT_GT(sink->total_received(), 0u);

  ASSERT_TRUE(op->Flush().ok());
  const auto after_flush = sink->total_received();
  EXPECT_GT(after_flush, 64u - 1u);  // the partial 36 were released
  // A second flush finds an empty buffer and emits nothing.
  ASSERT_TRUE(op->Flush().ok());
  EXPECT_EQ(sink->total_received(), after_flush);
  // Conservation after the flush: in == out (target rate retains all).
  EXPECT_EQ(op->stats().tuples_out, sink->total_received());
}

TEST(BatchFlushTest, RoutingScratchesNeverBufferAcrossBatches) {
  // Partition's per-port scratches (and Thin's in-place compaction) must
  // drain within PushBatch: a following Flush adds nothing.
  const std::vector<geom::Rect> regions = {geom::Rect(0, 0, 2, 4),
                                           geom::Rect(2, 0, 4, 4)};
  auto partition = PartitionOperator::Make("p", regions).MoveValue();
  auto thin = ThinOperator::Make("t", 10.0, 9.0, Rng(1)).MoveValue();
  auto s0 = SinkOperator::Make("s0").MoveValue();
  auto s1 = SinkOperator::Make("s1").MoveValue();
  thin->AddOutput(partition.get());
  partition->AddOutput(s0.get());
  partition->AddOutput(s1.get());

  TupleBatch batch(MakeStream(300));
  ASSERT_TRUE(thin->PushBatch(batch).ok());
  const auto received = s0->total_received() + s1->total_received();
  EXPECT_EQ(received, partition->stats().tuples_out);
  ASSERT_TRUE(thin->Flush().ok());
  ASSERT_TRUE(partition->Flush().ok());
  EXPECT_EQ(s0->total_received() + s1->total_received(), received);
  // Conservation: everything the partition took in was routed or counted.
  EXPECT_EQ(partition->stats().tuples_in,
            partition->stats().tuples_out + partition->unrouted());
}

// ---------------------------------------------------------------------------
// Whole-stack pins: one fabricator and the sharded runtime

geom::Grid TestGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue();
}

fabric::FabricConfig TestFabricConfig() {
  fabric::FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = 0xBA7C4;
  return config;
}

TupleBatch MakeGridBatch(Rng* rng, double* t, std::size_t n,
                         std::uint64_t first_id) {
  TupleBatch batch;
  batch.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple tuple;
    tuple.id = first_id + i;
    tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
    *t += 0.002;
    tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                       rng->Uniform(0.0, 4.0)};
    batch.Append(tuple);
  }
  return batch;
}

/// Per-query delivered stream in canonical (t, id) order plus the
/// aggregate counters; "byte-exact" compares full tuple contents.
struct DeliveredStreams {
  std::uint64_t tuples_routed = 0;
  std::uint64_t tuples_unrouted = 0;
  std::uint64_t operator_evaluations = 0;
  std::map<query::QueryId, std::vector<Tuple>> delivered;
};

void ExpectSameDelivery(const DeliveredStreams& a,
                        const DeliveredStreams& b) {
  EXPECT_EQ(a.tuples_routed, b.tuples_routed);
  EXPECT_EQ(a.tuples_unrouted, b.tuples_unrouted);
  ASSERT_EQ(a.delivered.size(), b.delivered.size());
  for (const auto& [id, tuples] : a.delivered) {
    const auto it = b.delivered.find(id);
    ASSERT_NE(it, b.delivered.end()) << "query " << id << " missing";
    ExpectSameTuples(tuples, it->second);
  }
}

/// FNV-1a digest of every query's sorted delivered stream, in query-id
/// order.
std::uint64_t DeliveryDigest(const DeliveredStreams& d) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [id, tuples] : d.delivered) {
    const std::uint64_t stream = StreamDigest(tuples);
    h = FnvFold(h, &id, sizeof(id));
    h = FnvFold(h, &stream, sizeof(stream));
  }
  return h;
}

// The churn workload's delivery, pinned from a tuple-at-a-time reference
// path (one fabricator, every tuple routed and pushed on its own, FlushAll
// after each batch).
constexpr std::uint64_t kChurnDeliveryDigest = 17247614706492924746ULL;
constexpr std::uint64_t kChurnTuplesRouted = 958;
constexpr std::uint64_t kChurnTuplesUnrouted = 194;
constexpr std::uint64_t kChurnOperatorEvaluations = 2421;

void ExpectPinnedChurnDelivery(const DeliveredStreams& d) {
  EXPECT_EQ(DeliveryDigest(d), kChurnDeliveryDigest);
  EXPECT_EQ(d.tuples_routed, kChurnTuplesRouted);
  EXPECT_EQ(d.tuples_unrouted, kChurnTuplesUnrouted);
}

/// Runs the churn workload against any fabricator-shaped object.
template <typename Fab>
void RunChurnWorkload(Fab* fab, DeliveredStreams* result) {
  Rng rng(99);
  double t = 0.0;
  std::uint64_t next_id = 1;
  auto pump_batches = [&](std::size_t batches) {
    for (std::size_t i = 0; i < batches; ++i) {
      TupleBatch batch = MakeGridBatch(&rng, &t, 96, next_id);
      next_id += batch.size();
      ASSERT_TRUE(fab->ProcessBatch(batch).ok());
    }
  };

  const auto q1 = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0);
  ASSERT_TRUE(q1.ok());
  const auto q2 = fab->InsertQuery(kRain, geom::Rect(1, 1, 3, 3), 3.0);
  ASSERT_TRUE(q2.ok());
  const auto q3 = fab->InsertQuery(kTemp, geom::Rect(0, 0, 2, 4), 4.0);
  ASSERT_TRUE(q3.ok());
  pump_batches(5);
  ASSERT_TRUE(fab->ValidateInvariants().ok());
  ASSERT_TRUE(fab->RemoveQuery(q2->id).ok());
  pump_batches(3);
  const auto q4 = fab->InsertQuery(kRain, geom::Rect(2, 0, 4, 3), 2.0);
  ASSERT_TRUE(q4.ok());
  pump_batches(4);
  ASSERT_TRUE(fab->ValidateInvariants().ok());

  result->tuples_routed = fab->tuples_routed();
  result->tuples_unrouted = fab->tuples_unrouted();
  result->operator_evaluations = fab->TotalOperatorEvaluations();
  for (const auto id : {q1->id, q3->id, q4->id}) {
    const auto stream = fab->GetStream(id);
    ASSERT_TRUE(stream.ok());
    std::vector<Tuple> tuples = stream->sink->tuples();
    std::sort(tuples.begin(), tuples.end(),
              [](const Tuple& a, const Tuple& b) {
                return std::make_pair(a.point.t, a.id) <
                       std::make_pair(b.point.t, b.id);
              });
    result->delivered[id] = std::move(tuples);
  }
}

DeliveredStreams RunBatchSingle() {
  auto fab = fabric::StreamFabricator::Make(TestGrid(), TestFabricConfig())
                 .MoveValue();
  DeliveredStreams result;
  RunChurnWorkload(fab.get(), &result);
  return result;
}

DeliveredStreams RunBatchSharded(std::size_t num_shards) {
  runtime::ShardedConfig config;
  config.num_shards = num_shards;
  config.fabric = TestFabricConfig();
  auto fab = runtime::ShardedFabricator::Make(TestGrid(), config).MoveValue();
  DeliveredStreams result;
  RunChurnWorkload(fab.get(), &result);
  return result;
}

TEST(BatchPipelineEquivalenceTest, BatchPathMatchesPinnedChurnDelivery) {
  const DeliveredStreams batched = RunBatchSingle();
  std::uint64_t total = 0;
  for (const auto& [id, tuples] : batched.delivered) {
    (void)id;
    total += tuples.size();
  }
  ASSERT_GT(total, 0u) << "workload delivered nothing; test is vacuous";
  ExpectPinnedChurnDelivery(batched);
  // The summed evaluations are one number covering every operator's
  // tuples_in.
  EXPECT_EQ(batched.operator_evaluations, kChurnOperatorEvaluations);
}

TEST(BatchPipelineEquivalenceTest, ShardedBatchPathMatchesPinnedChurnDelivery) {
  const DeliveredStreams reference = RunBatchSingle();
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    const DeliveredStreams sharded = RunBatchSharded(shards);
    ExpectPinnedChurnDelivery(sharded);
    ExpectSameDelivery(reference, sharded);
  }
}

// ---------------------------------------------------------------------------
// Violation-report replay: canonical completion-time order on every path

struct ReplayedReport {
  AttributeId attribute = 0;
  std::uint32_t q = 0;
  std::uint32_t r = 0;
  double completed_at = 0.0;
  std::size_t n = 0;

  bool operator==(const ReplayedReport& o) const {
    return attribute == o.attribute && q == o.q && r == o.r &&
           completed_at == o.completed_at && n == o.n;
  }
};

template <typename Fab>
std::vector<ReplayedReport> PumpAndRecordReports(Fab* fab) {
  std::vector<ReplayedReport> reports;
  fab->SetViolationCallback(
      [&reports](AttributeId attribute, const geom::CellIndex& cell,
                 const FlattenBatchReport& report) {
        reports.push_back({attribute, cell.q, cell.r, report.completed_at,
                           report.n});
      });
  EXPECT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());
  EXPECT_TRUE(fab->InsertQuery(kTemp, geom::Rect(0, 0, 3, 4), 4.0).ok());
  Rng rng(55);
  double t = 0.0;
  std::uint64_t next_id = 1;
  for (int b = 0; b < 8; ++b) {
    auto batch = MakeGridBatch(&rng, &t, 128, next_id);
    next_id += batch.size();
    EXPECT_TRUE(fab->ProcessBatch(batch).ok());
  }
  return reports;
}

TEST(ViolationReplayTest, CompletionTimeOrderIsShardCountIndependent) {
  auto single = fabric::StreamFabricator::Make(TestGrid(), TestFabricConfig())
                    .MoveValue();
  const std::vector<ReplayedReport> reference =
      PumpAndRecordReports(single.get());
  ASSERT_GT(reference.size(), 1u) << "no reports fired; test is vacuous";
  // The replay is sorted by completion time within each batch boundary.
  for (std::size_t i = 1; i < reference.size(); ++i) {
    if (reference[i - 1].completed_at > reference[i].completed_at) {
      // Only allowed across batch boundaries, where time restarts rising;
      // completed_at itself never decreases across boundaries because the
      // driving stream is time-monotone.
      ADD_FAILURE() << "reports replayed out of completion-time order at "
                    << i;
    }
  }
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    runtime::ShardedConfig config;
    config.num_shards = shards;
    config.fabric = TestFabricConfig();
    auto fab =
        runtime::ShardedFabricator::Make(TestGrid(), config).MoveValue();
    const std::vector<ReplayedReport> sharded =
        PumpAndRecordReports(fab.get());
    ASSERT_EQ(sharded.size(), reference.size());
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      EXPECT_TRUE(sharded[i] == reference[i]) << "report " << i
                                              << " diverged";
    }
  }
}

}  // namespace
}  // namespace ops
}  // namespace craqr
