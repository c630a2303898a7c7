/// \file bench_partition_union.cc
/// \brief Experiment E8 — Partition and Union preserve the process rate.
///
/// Paper Section IV-B-1: Partition splits P(lambda, R*) into processes
/// "of the same rate lambda but on different regions"; Union merges
/// adjacent equal-rate processes into P(lambda, R*1 u R*2).  We push large
/// homogeneous streams through random k-way partitions and a union tree
/// and verify each output's empirical rate with exact Poisson tests.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "ops/extras.h"
#include "ops/partition.h"
#include "ops/union_op.h"
#include "pointprocess/gof.h"
#include "pointprocess/simulate.h"

int main() {
  using namespace craqr;  // NOLINT

  std::printf("=== E8: Partition / Union rate preservation ===\n\n");
  const double rate = 12.0;
  const double duration = 120.0;

  std::printf("--- k-way partition of P(%.0f, [0,4)x[0,4)) ---\n", rate);
  std::printf("%-6s %-12s %-12s %-12s %-10s\n", "k", "branch", "expected",
              "observed", "p-value");
  for (const int k : {2, 4, 8}) {
    const geom::Rect region(0, 0, 4, 4);
    const pp::SpaceTimeWindow window{0.0, duration, region};
    Rng rng(800 + static_cast<std::uint64_t>(k));
    const auto points =
        pp::SimulateHomogeneous(&rng, rate, window).MoveValue();
    // Vertical strips.
    std::vector<geom::Rect> strips;
    const double width = region.Width() / k;
    for (int i = 0; i < k; ++i) {
      strips.emplace_back(i * width, 0.0, (i + 1) * width, 4.0);
    }
    auto partition =
        ops::PartitionOperator::Make("p", strips).MoveValue();
    std::vector<std::unique_ptr<ops::SinkOperator>> sinks;
    for (int i = 0; i < k; ++i) {
      sinks.push_back(
          ops::SinkOperator::Make("s" + std::to_string(i), 1 << 24)
              .MoveValue());
      partition->AddOutput(sinks.back().get());
    }
    ops::TupleBatch batch;
    for (const auto& p : points) {
      ops::Tuple tuple;
      tuple.point = p;
      batch.Append(tuple);
    }
    (void)partition->PushBatch(batch);
    for (int i = 0; i < k; ++i) {
      const double expected = rate * strips[i].Area() * duration;
      const double observed =
          static_cast<double>(sinks[i]->tuples().size());
      std::printf("%-6d %-12d %-12.0f %-12.0f %-10.3f\n", k, i, expected,
                  observed, PoissonTwoSidedPValue(expected, observed));
    }
  }

  std::printf("\n--- union tree over a row of adjacent cells ---\n");
  std::printf("%-8s %-14s %-12s %-12s %-10s\n", "cells", "union area",
              "expected", "observed", "p-value");
  for (const int cells : {2, 3, 6}) {
    std::vector<geom::Rect> pieces;
    for (int i = 0; i < cells; ++i) {
      pieces.emplace_back(i, 0.0, i + 1.0, 1.0);
    }
    auto union_op = ops::UnionOperator::Make("u", pieces).MoveValue();
    auto sink = ops::SinkOperator::Make("sink", 1 << 24).MoveValue();
    union_op->AddOutput(sink.get());
    Rng rng(900 + static_cast<std::uint64_t>(cells));
    for (const auto& piece : pieces) {
      const auto points = pp::SimulateHomogeneous(
                              &rng, rate, pp::SpaceTimeWindow{0, duration, piece})
                              .MoveValue();
      ops::TupleBatch batch;
      for (const auto& p : points) {
        ops::Tuple tuple;
        tuple.point = p;
        batch.Append(tuple);
      }
      (void)union_op->PushBatch(batch);
    }
    const double expected =
        rate * union_op->output_region().Area() * duration;
    const double observed = static_cast<double>(sink->tuples().size());
    std::printf("%-8d %-14.1f %-12.0f %-12.0f %-10.3f\n", cells,
                union_op->output_region().Area(), expected, observed,
                PoissonTwoSidedPValue(expected, observed));
  }

  std::printf("\n--- partition then union round-trip is lossless ---\n");
  {
    const geom::Rect region(0, 0, 4, 4);
    const pp::SpaceTimeWindow window{0.0, duration, region};
    Rng rng(1000);
    const auto points =
        pp::SimulateHomogeneous(&rng, rate, window).MoveValue();
    const std::vector<geom::Rect> halves = {geom::Rect(0, 0, 2, 4),
                                            geom::Rect(2, 0, 4, 4)};
    auto partition = ops::PartitionOperator::Make("p", halves).MoveValue();
    auto union_op = ops::UnionOperator::Make("u", halves).MoveValue();
    auto sink = ops::SinkOperator::Make("sink", 1 << 24).MoveValue();
    partition->AddOutput(union_op.get());
    partition->AddOutput(union_op.get());
    union_op->AddOutput(sink.get());
    ops::TupleBatch batch;
    for (const auto& p : points) {
      ops::Tuple tuple;
      tuple.point = p;
      batch.Append(tuple);
    }
    (void)partition->PushBatch(batch);
    std::printf("input %zu tuples -> output %zu tuples (unrouted %llu)\n",
                points.size(), sink->tuples().size(),
                static_cast<unsigned long long>(partition->unrouted()));
  }
  return 0;
}
