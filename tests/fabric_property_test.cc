/// \file fabric_property_test.cc
/// \brief Randomized property tests of the fabricator's topology surgery.
///
/// The Section-V insertion/deletion rules are easy to get subtly wrong
/// (dangling edges, unsorted chains, stale rates after splices). These
/// tests run long randomized insert/delete/process sequences and check
/// StreamFabricator::ValidateInvariants() after every mutation, plus
/// conservation and determinism properties.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fabric/fabricator.h"
#include "pointprocess/simulate.h"

namespace craqr {
namespace fabric {
namespace {

constexpr ops::AttributeId kAttrA = 0;
constexpr ops::AttributeId kAttrB = 1;

geom::Grid PropertyGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 6, 6), 9).MoveValue();
}

query::AcquisitionQuery RandomQuery(Rng* rng) {
  query::AcquisitionQuery q;
  const double x = rng->Uniform(0.0, 3.0);
  const double y = rng->Uniform(0.0, 3.0);
  // Keep the area at or above one 2x2 km grid cell (paper Section IV).
  const double w = rng->Uniform(2.0, 3.0);
  q.region = geom::Rect(x, y, x + w, y + w);
  // A small set of discrete rates maximises tap sharing and T-merge
  // exercise.
  const double rates[] = {1.0, 2.0, 4.0, 4.0, 8.0};
  q.rate = rates[rng->UniformInt(5)];
  return q;
}

class FabricChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricChurnTest, InvariantsHoldUnderRandomChurn) {
  Rng rng(GetParam());
  FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = GetParam() * 7919;
  auto fabricator = StreamFabricator::Make(PropertyGrid(), config).MoveValue();

  std::vector<query::QueryId> live;
  for (int step = 0; step < 120; ++step) {
    const bool insert = live.size() < 3 || rng.Bernoulli(0.55);
    if (insert) {
      const auto q = RandomQuery(&rng);
      const ops::AttributeId attribute =
          rng.Bernoulli(0.5) ? kAttrA : kAttrB;
      const auto stream = fabricator->InsertQuery(attribute, q.region, q.rate);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      live.push_back(stream->id);
    } else {
      const std::size_t victim = rng.UniformInt(live.size());
      ASSERT_TRUE(fabricator->RemoveQuery(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const Status invariants = fabricator->ValidateInvariants();
    ASSERT_TRUE(invariants.ok())
        << "after step " << step << ": " << invariants.ToString() << "\n"
        << fabricator->DescribeTopology();

    // Periodically push a batch through whatever topology exists.
    if (step % 10 == 9) {
      const pp::SpaceTimeWindow window{static_cast<double>(step),
                                       static_cast<double>(step) + 1.0,
                                       geom::Rect(0, 0, 6, 6)};
      const auto points =
          pp::SimulateHomogeneous(&rng, 20.0, window).MoveValue();
      ops::TupleBatch batch;
      for (const auto& p : points) {
        ops::Tuple tuple;
        tuple.point = p;
        tuple.attribute = rng.Bernoulli(0.5) ? kAttrA : kAttrB;
        batch.Append(tuple);
      }
      ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());
      ASSERT_TRUE(fabricator->ValidateInvariants().ok());
    }
  }

  // Full teardown leaves nothing behind.
  for (const auto id : live) {
    ASSERT_TRUE(fabricator->RemoveQuery(id).ok());
    ASSERT_TRUE(fabricator->ValidateInvariants().ok());
  }
  EXPECT_EQ(fabricator->NumMaterializedCells(), 0u);
  EXPECT_EQ(fabricator->TotalOperators(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricChurnTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(FabricPropertyTest, InsertionOrderDoesNotChangeTopologyShape) {
  // Inserting the same query set in different orders must converge to the
  // same chain structure (rates sorted, same operator census).
  const struct {
    ops::AttributeId attribute;
    geom::Rect region;
    double rate;
  } queries[] = {
      {kAttrA, geom::Rect(0, 0, 2, 2), 8.0},
      {kAttrA, geom::Rect(0, 0, 2, 2), 2.0},
      {kAttrA, geom::Rect(0, 0, 2, 2), 4.0},
      {kAttrB, geom::Rect(0, 0, 4, 2), 3.0},
  };
  const std::size_t orders[][4] = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};

  std::string reference;
  for (const auto& order : orders) {
    auto fabricator = StreamFabricator::Make(PropertyGrid()).MoveValue();
    for (const std::size_t i : order) {
      ASSERT_TRUE(fabricator
                      ->InsertQuery(queries[i].attribute, queries[i].region,
                                    queries[i].rate)
                      .ok());
    }
    ASSERT_TRUE(fabricator->ValidateInvariants().ok());
    std::size_t f = 0;
    std::size_t t = 0;
    fabricator->VisitOperators([&](const ops::Operator& op) {
      f += op.kind() == ops::OperatorKind::kFlatten ? 1 : 0;
      t += op.kind() == ops::OperatorKind::kThin ? 1 : 0;
    });
    std::ostringstream census;
    census << "F=" << f << " T=" << t
           << " cells=" << fabricator->NumMaterializedCells();
    if (reference.empty()) {
      reference = census.str();
    } else {
      EXPECT_EQ(census.str(), reference);
    }
  }
}

TEST(FabricPropertyTest, TupleConservationThroughSharedChain) {
  // Every tuple pushed into a cell either reaches some query tap or is
  // dropped by exactly one probabilistic operator; two full-cell queries
  // at the F headroom boundary must jointly see at most the F output.
  auto fabricator = StreamFabricator::Make(PropertyGrid()).MoveValue();
  const auto fast =
      fabricator->InsertQuery(kAttrA, geom::Rect(0, 0, 2, 2), 8.0).MoveValue();
  const auto slow =
      fabricator->InsertQuery(kAttrA, geom::Rect(0, 0, 2, 2), 2.0).MoveValue();
  Rng rng(99);
  const pp::SpaceTimeWindow window{0.0, 60.0, geom::Rect(0, 0, 2, 2)};
  const auto points = pp::SimulateHomogeneous(&rng, 30.0, window).MoveValue();
  ops::TupleBatch batch;
  for (const auto& p : points) {
    ops::Tuple tuple;
    tuple.point = p;
    tuple.attribute = kAttrA;
    batch.Append(tuple);
  }
  ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());

  std::uint64_t f_out = 0;
  fabricator->VisitOperators([&](const ops::Operator& op) {
    if (op.kind() == ops::OperatorKind::kFlatten) {
      f_out = op.stats().tuples_out;
    }
  });
  // The fast tap hangs off the first T, the slow off the second: the fast
  // stream dominates the slow and neither exceeds the F output.
  EXPECT_LE(fast.sink->total_received(), f_out);
  EXPECT_LE(slow.sink->total_received(), fast.sink->total_received());
  EXPECT_GT(slow.sink->total_received(), 0u);
}

TEST(FabricPropertyTest, ValidateCatchesForeignDamage) {
  // The validator is not a tautology: externally mutating the topology
  // must trip it.
  auto fabricator = StreamFabricator::Make(PropertyGrid()).MoveValue();
  const auto stream =
      fabricator->InsertQuery(kAttrA, geom::Rect(0, 0, 2, 2), 4.0).MoveValue();
  ASSERT_TRUE(fabricator->ValidateInvariants().ok());
  // Sever the tap edge behind the fabricator's back.
  ops::Operator* thin = nullptr;
  fabricator->VisitOperators([&](const ops::Operator& op) {
    if (op.kind() == ops::OperatorKind::kThin) {
      thin = const_cast<ops::Operator*>(&op);
    }
  });
  ASSERT_NE(thin, nullptr);
  ASSERT_TRUE(thin->RemoveOutput(stream.sink) || !thin->outputs().empty());
  while (!thin->outputs().empty()) {
    thin->RemoveOutput(thin->outputs().front());
  }
  EXPECT_FALSE(fabricator->ValidateInvariants().ok());
}

}  // namespace
}  // namespace fabric
}  // namespace craqr
