#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fabric/fabricator.h"
#include "ops/extras.h"
#include "ops/reorder.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"
#include "ops/value_pool.h"
#include "runtime/sharded_fabricator.h"

/// \file ops_columnar_test.cc
/// \brief The columnar tuple layout: ValuePool interning, PayloadRef tag
/// round-trips, SoA TupleBatch behavior, byte-exact old-vs-new delivered
/// streams (digests captured from the pre-refactor variant/AoS build), and
/// canonical delivery *order* across shard counts.

namespace craqr {
namespace ops {
namespace {

constexpr AttributeId kRain = 0;
constexpr AttributeId kTemp = 1;

// ---------------------------------------------------------------------------
// ValuePool

TEST(ValuePoolTest, InternsDedupsAndRoundTrips) {
  ValuePool pool;
  const ValueId a = pool.Intern("wet");
  const ValueId b = pool.Intern("dry");
  const ValueId a2 = pool.Intern("wet");
  EXPECT_EQ(a, a2) << "interning must deduplicate";
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Get(a), "wet");
  EXPECT_EQ(pool.Get(b), "dry");
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_GT(pool.ApproxBytes(), 0u);
  // References are stable across growth (append-only storage).
  const std::string* wet = &pool.Get(a);
  for (int i = 0; i < 1000; ++i) {
    pool.Intern("grow-" + std::to_string(i));
  }
  EXPECT_EQ(&pool.Get(a), wet);
  EXPECT_EQ(pool.Get(a), "wet");
  EXPECT_EQ(pool.size(), 1002u);
}

TEST(ValuePoolTest, EmptyStringAndConcurrentIntern) {
  ValuePool pool;
  const ValueId empty = pool.Intern("");
  EXPECT_EQ(pool.Get(empty), "");
  // Hammer the pool from several threads with overlapping vocabularies;
  // afterwards every id must resolve to its string (sanitizer fodder).
  std::vector<std::thread> threads;
  std::vector<std::vector<ValueId>> ids(4);
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&pool, &ids, w] {
      for (int i = 0; i < 500; ++i) {
        ids[w].push_back(pool.Intern("shared-" + std::to_string(i % 97)));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int w = 0; w < 4; ++w) {
    for (std::size_t i = 0; i < ids[w].size(); ++i) {
      EXPECT_EQ(pool.Get(ids[w][i]), "shared-" + std::to_string(i % 97));
    }
  }
  EXPECT_EQ(pool.size(), 98u);  // 97 shared + the empty string
}

// ---------------------------------------------------------------------------
// PayloadRef

TEST(PayloadRefTest, TagRoundTripAllFiveKinds) {
  const PayloadRef null = PayloadRef::Null();
  EXPECT_EQ(null.kind(), PayloadKind::kNull);
  EXPECT_TRUE(null.is_null());

  const PayloadRef yes = PayloadRef::Bool(true);
  const PayloadRef no = PayloadRef::Bool(false);
  EXPECT_EQ(yes.kind(), PayloadKind::kBool);
  EXPECT_TRUE(yes.AsBool());
  EXPECT_FALSE(no.AsBool());

  const PayloadRef big = PayloadRef::Int64(-0x123456789abcdef0);
  EXPECT_EQ(big.kind(), PayloadKind::kInt64);
  EXPECT_EQ(big.AsInt64(), -0x123456789abcdef0);

  const double tricky = -0.0;
  const PayloadRef d = PayloadRef::Double(1.0 / 9973.0);
  const PayloadRef neg_zero = PayloadRef::Double(tricky);
  EXPECT_EQ(d.kind(), PayloadKind::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 1.0 / 9973.0);
  EXPECT_TRUE(std::signbit(neg_zero.AsDouble()));

  ValuePool pool;
  const PayloadRef s = PayloadRef::String("downpour", pool);
  EXPECT_EQ(s.kind(), PayloadKind::kString);
  EXPECT_EQ(s.AsString(pool), "downpour");
  EXPECT_EQ(PayloadRef::InternedString(s.string_id()), s);
}

TEST(PayloadRefTest, EqualityAndInterningMakeStringsComparable) {
  EXPECT_EQ(PayloadRef::Double(2.5), PayloadRef::Double(2.5));
  EXPECT_NE(PayloadRef::Double(2.5), PayloadRef::Int64(2));
  EXPECT_NE(PayloadRef::Null(), PayloadRef::Bool(false));
  ValuePool pool;
  // Same pool + dedup: id equality == string equality.
  EXPECT_EQ(PayloadRef::String("wet", pool), PayloadRef::String("wet", pool));
  EXPECT_NE(PayloadRef::String("wet", pool), PayloadRef::String("dry", pool));
}

TEST(PayloadRefTest, VariantBridgesRoundTrip) {
  ValuePool pool;
  const AttributeValue cases[] = {
      AttributeValue{}, AttributeValue{true},
      AttributeValue{std::int64_t{-42}}, AttributeValue{19.8125},
      AttributeValue{std::string("wet")}};
  for (const auto& value : cases) {
    const PayloadRef payload = MakePayload(value, pool);
    EXPECT_EQ(static_cast<std::size_t>(payload.kind()), value.index());
    EXPECT_TRUE(ToAttributeValue(payload, pool) == value)
        << AttributeValueToString(value);
  }
  // The implicit constructor bridges through the global pool.
  Tuple tuple;
  tuple.value = AttributeValue{std::string("drizzle")};
  EXPECT_EQ(tuple.value.AsString(), "drizzle");
  EXPECT_EQ(PayloadToString(tuple.value), "\"drizzle\"");
  EXPECT_EQ(PayloadToString(PayloadRef::Null()), "null");
}

// ---------------------------------------------------------------------------
// SoA TupleBatch mechanics the batch test does not already cover

TEST(TupleBatchTest, SortByTimeThenIdIsCanonicalAndCompacts) {
  TupleBatch batch;
  const double times[] = {3.0, 1.0, 2.0, 1.0, 0.5};
  for (std::size_t i = 0; i < 5; ++i) {
    Tuple t;
    t.id = i + 1;
    t.point = geom::SpaceTimePoint{times[i], 0, 0};
    batch.Append(t);
  }
  // Deselect id 3 (t=2.0); the sort must drop the husk and order the rest
  // by (t, id): id5(0.5), id2(1.0), id4(1.0), id1(3.0).
  batch.RetainRaw([](std::uint32_t raw) { return raw != 2; });
  batch.SortByTimeThenId();
  EXPECT_FALSE(batch.has_selection());
  ASSERT_EQ(batch.size(), 4u);
  const std::uint64_t expected[] = {5, 2, 4, 1};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.Ids()[i], expected[i]) << i;
  }
}

TEST(TupleBatchTest, AppendActiveFromHonorsSelections) {
  TupleBatch src;
  for (std::size_t i = 0; i < 10; ++i) {
    Tuple t;
    t.id = i;
    src.Append(t);
  }
  src.RetainRaw([](std::uint32_t raw) { return raw % 2 == 0; });
  TupleBatch dst;
  Tuple seed;
  seed.id = 99;
  dst.Append(seed);
  dst.AppendActiveFrom(src);
  ASSERT_EQ(dst.size(), 6u);
  const std::uint64_t expected[] = {99, 0, 2, 4, 6, 8};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(dst.Ids()[i], expected[i]) << i;
  }
}

TEST(ReorderOperatorTest, FlushEmitsCanonicalOrder) {
  auto reorder = ReorderOperator::Make("ord").MoveValue();
  auto sink = SinkOperator::Make("sink").MoveValue();
  reorder->AddOutput(sink.get());
  // Two pushes with interleaved times (two upstream chains' worth).
  TupleBatch first, second;
  const double chain_a[] = {1.0, 3.0, 5.0};
  const double chain_b[] = {2.0, 4.0, 4.0};
  for (int i = 0; i < 3; ++i) {
    Tuple t;
    t.id = static_cast<std::uint64_t>(i) + 1;
    t.point = geom::SpaceTimePoint{chain_a[i], 0, 0};
    first.Append(t);
    t.id = static_cast<std::uint64_t>(i) + 4;
    t.point = geom::SpaceTimePoint{chain_b[i], 0, 0};
    second.Append(t);
  }
  ASSERT_TRUE(reorder->PushBatch(first).ok());
  ASSERT_TRUE(reorder->PushBatch(second).ok());
  EXPECT_EQ(sink->total_received(), 0u) << "Ord buffers until Flush";
  EXPECT_EQ(reorder->buffered(), 6u);
  ASSERT_TRUE(reorder->Flush().ok());
  EXPECT_EQ(reorder->buffered(), 0u);
  ASSERT_EQ(sink->tuples().size(), 6u);
  const std::uint64_t expected[] = {1, 4, 2, 5, 6, 3};  // (t, id) order
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sink->tuples()[i].id, expected[i]) << i;
  }
  EXPECT_EQ(reorder->stats().tuples_in, reorder->stats().tuples_out);
}

// ---------------------------------------------------------------------------
// Byte-exact old-vs-new delivered streams under churn
//
// The digests below were captured by running this exact workload against
// the pre-refactor build (AoS TupleBatch, variant-valued ~90-byte Tuple)
// at commit f7c3d49: every query's delivered stream, sorted by (t, id),
// rendered field-by-field (double bits in hex, values tagged) and FNV-1a
// hashed. The columnar layout must reproduce them bit for bit on every
// execution path.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::string RenderValue(const PayloadRef& v) {
  std::ostringstream os;
  switch (v.kind()) {
    case PayloadKind::kNull:
      os << "n";
      break;
    case PayloadKind::kBool:
      os << "b" << (v.AsBool() ? 1 : 0);
      break;
    case PayloadKind::kInt64:
      os << "i" << v.AsInt64();
      break;
    case PayloadKind::kDouble:
      os << "d" << std::hex << Bits(v.AsDouble());
      break;
    case PayloadKind::kString:
      os << "s" << v.AsString();
      break;
  }
  return os.str();
}

const char* kCategories[7] = {"clear", "drizzle", "rain",   "downpour",
                              "hail",  "sleet",   "fog"};

/// The pre-refactor driver's batch shape: monotone times, mixed
/// attributes, and values cycling through all five payload kinds.
std::vector<Tuple> MakeValuedBatch(Rng* rng, double* t, std::size_t n,
                                   std::uint64_t first_id) {
  std::vector<Tuple> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple tuple;
    tuple.id = first_id + i;
    tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
    tuple.sensor_id = 100 + (i % 17);
    *t += 0.002;
    tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                       rng->Uniform(0.0, 4.0)};
    switch (i % 5) {
      case 0:
        break;  // null
      case 1:
        tuple.value = PayloadRef::Bool(i % 2 == 1);
        break;
      case 2:
        tuple.value = PayloadRef::Int64(static_cast<std::int64_t>(i) * 7 - 3);
        break;
      case 3:
        tuple.value = PayloadRef::Double(static_cast<double>(i) * 0.25);
        break;
      case 4:
        tuple.value = PayloadRef::String(kCategories[i % 7]);
        break;
    }
    batch.push_back(tuple);
  }
  return batch;
}

struct StreamTrace {
  std::size_t count = 0;
  std::uint64_t digest = kFnvOffset;        // canonical (t, id) order
  std::vector<std::uint64_t> delivery_ids;  // raw delivery order
};

/// Runs the golden churn workload (identical to the pre-refactor capture
/// driver) and returns, per query slot, the canonical content digest plus
/// the raw delivery-order id sequence.
template <typename Fab>
void RunGoldenWorkload(Fab* fab, std::vector<StreamTrace>* out) {
  Rng rng(99);
  double t = 0.0;
  std::uint64_t next_id = 1;
  auto pump = [&](std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      ops::TupleBatch batch(MakeValuedBatch(&rng, &t, 96, next_id));
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
  pump(5);
  ASSERT_TRUE(fab->RemoveQuery(q2->id).ok());
  pump(3);
  const auto q4 = fab->InsertQuery(kRain, geom::Rect(2, 0, 4, 3), 2.0);
  ASSERT_TRUE(q4.ok());
  pump(4);
  ASSERT_TRUE(fab->ValidateInvariants().ok());

  for (const auto id : {q1->id, q3->id, q4->id}) {
    const auto stream = fab->GetStream(id);
    ASSERT_TRUE(stream.ok());
    StreamTrace trace;
    std::vector<Tuple> tuples = stream->sink->tuples();
    trace.count = tuples.size();
    for (const Tuple& tuple : tuples) {
      trace.delivery_ids.push_back(tuple.id);
    }
    std::sort(tuples.begin(), tuples.end(), [](const Tuple& a,
                                               const Tuple& b) {
      return std::make_pair(a.point.t, a.id) < std::make_pair(b.point.t, b.id);
    });
    for (const Tuple& tuple : tuples) {
      std::ostringstream line;
      line << tuple.id << '|' << tuple.attribute << '|' << std::hex
           << Bits(tuple.point.t) << '|' << Bits(tuple.point.x) << '|'
           << Bits(tuple.point.y) << '|' << std::dec << tuple.sensor_id << '|'
           << RenderValue(tuple.value) << '\n';
      trace.digest = Fnv1a(line.str(), trace.digest);
    }
    out->push_back(std::move(trace));
  }
}

geom::Grid GoldenGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue();
}

fabric::FabricConfig GoldenFabricConfig() {
  fabric::FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = 0xBA7C4;
  return config;
}

std::vector<StreamTrace> RunGoldenSingle() {
  auto fab = fabric::StreamFabricator::Make(GoldenGrid(), GoldenFabricConfig())
                 .MoveValue();
  std::vector<StreamTrace> traces;
  RunGoldenWorkload(fab.get(), &traces);
  return traces;
}

std::vector<StreamTrace> RunGoldenSharded(std::size_t num_shards) {
  runtime::ShardedConfig config;
  config.num_shards = num_shards;
  config.fabric = GoldenFabricConfig();
  auto fab =
      runtime::ShardedFabricator::Make(GoldenGrid(), config).MoveValue();
  std::vector<StreamTrace> traces;
  RunGoldenWorkload(fab.get(), &traces);
  return traces;
}

/// Captured from the pre-refactor build (see the block comment above).
struct GoldenDigest {
  std::size_t count;
  std::uint64_t digest;
};
constexpr GoldenDigest kGolden[3] = {
    {196, 0x5138c158969b9d1eull},  // Q1: rain over the full region
    {77, 0x587325b8f0884519ull},   // Q3: temp over the left half
    {3, 0xbd3a8a72fb58eeeeull},    // Q4: rain, late insert
};

TEST(ColumnarEquivalenceTest, DeliveredStreamsMatchPreRefactorDigests) {
  const std::vector<StreamTrace> single = RunGoldenSingle();
  ASSERT_EQ(single.size(), 3u);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(single[q].count, kGolden[q].count) << "query slot " << q;
    EXPECT_EQ(single[q].digest, kGolden[q].digest)
        << "query slot " << q
        << ": delivered stream content diverged from the variant/AoS layout";
  }
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    const std::vector<StreamTrace> sharded = RunGoldenSharded(shards);
    ASSERT_EQ(sharded.size(), 3u);
    for (std::size_t q = 0; q < 3; ++q) {
      EXPECT_EQ(sharded[q].count, kGolden[q].count) << "query slot " << q;
      EXPECT_EQ(sharded[q].digest, kGolden[q].digest) << "query slot " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical delivery ORDER across shard counts (not just content): the
// merge stages' reorder buffers flush every processing step in (t, id)
// order on both execution paths, so the raw sink sequences must be
// identical for the in-process fabricator and shards {1, 2, 4}.

TEST(ColumnarEquivalenceTest, DeliveryOrderIsShardCountIndependent) {
  const std::vector<StreamTrace> reference = RunGoldenSingle();
  ASSERT_EQ(reference.size(), 3u);
  ASSERT_GT(reference[0].delivery_ids.size(), 0u);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    const std::vector<StreamTrace> sharded = RunGoldenSharded(shards);
    ASSERT_EQ(sharded.size(), 3u);
    for (std::size_t q = 0; q < 3; ++q) {
      EXPECT_EQ(sharded[q].delivery_ids, reference[q].delivery_ids)
          << "query slot " << q << ": delivery order diverged";
    }
  }
}

}  // namespace
}  // namespace ops
}  // namespace craqr
