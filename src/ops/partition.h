#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "geometry/rect.h"
#include "ops/operator.h"
#include "ops/state_serde.h"

/// \file partition.h
/// \brief The P (Partition) PMAT operator (paper Section IV-B-1).
///
/// Partitions a point process P(lambda, R*) into point processes of the
/// same rate lambda on pairwise-disjoint sub-regions: each incoming tuple
/// is routed to the output branch whose region contains it. Partitioning a
/// Poisson process by location preserves the rate on each piece, so every
/// branch carries P(lambda, R*_k).
///
/// The paper draws P with two outputs and notes it "can be easily extended
/// to partition processes into multiple regions"; this implementation is
/// k-way.

namespace craqr {
namespace ops {

/// \brief Region-routing operator. Output port k corresponds to
/// `regions()[k]`; connect branches with AddOutput in region order.
class PartitionOperator final : public Operator {
 public:
  /// Validating factory: requires >= 2 pairwise-disjoint regions of
  /// positive area.
  static Result<std::unique_ptr<PartitionOperator>> Make(
      std::string name, std::vector<geom::Rect> regions);

  /// One branch-free containment mask per connected region
  /// (Rect::ContainsMask over the raw point column) and one mask-compact
  /// pass per port build the per-port index lists, then every non-empty
  /// port receives the same batch storage with its list adopted as the
  /// selection — tuples are never moved and the per-row region-dispatch
  /// branch is gone. The lists and masks are recycled members and the
  /// lists are always drained before returning, so Partition never
  /// buffers across batch boundaries.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kPartition; }

  /// The branch regions, in output-port order.
  const std::vector<geom::Rect>& regions() const { return regions_; }

  /// Tuples that fell in none of the branch regions (dropped).
  std::uint64_t unrouted() const { return unrouted_; }

  /// \name Checkpoint support
  /// Mutable state is the base counters plus the unrouted diagnostic; the
  /// regions are construction inputs and the per-port scratch never
  /// survives a batch.
  ///@{
  void SaveState(StateWriter& w) const {
    WriteOperatorCounters(w, *this);
    w.WriteU64(unrouted_);
  }
  Status RestoreState(StateReader& r) {
    CRAQR_RETURN_NOT_OK(ReadOperatorCounters(r, this));
    return r.ReadU64(&unrouted_);
  }
  ///@}

 private:
  PartitionOperator(std::string name, std::vector<geom::Rect> regions)
      : Operator(std::move(name)), regions_(std::move(regions)) {}

  std::vector<geom::Rect> regions_;
  std::uint64_t unrouted_ = 0;
  /// Per-output-port routed index lists, recycled across batches.
  std::vector<std::vector<std::uint32_t>> port_selection_;
  /// Per-region containment masks over the raw rows, recycled likewise.
  std::vector<std::vector<std::uint8_t>> region_masks_;
};

}  // namespace ops
}  // namespace craqr
