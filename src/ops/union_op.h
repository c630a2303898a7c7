#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "geometry/rect.h"
#include "ops/operator.h"
#include "ops/state_serde.h"

/// \file union_op.h
/// \brief The U (Union) PMAT operator (paper Section IV-B-1).
///
/// Unions MDPPs P(lambda, R*_1) and P(lambda, R*_2) into P(lambda, R*_3)
/// with R*_3 = R*_1 union R*_2. The paper requires "the rectangles should
/// be adjacent and with a common side of equal length" and notes the
/// operator "can be easily extended to union multiple MDPPs at once": this
/// implementation accepts k >= 2 disjoint rectangles whose union is itself
/// a rectangle (the k-way generalisation of the pairwise adjacency rule),
/// validated at construction.

namespace craqr {
namespace ops {

/// \brief Stream-merging operator over adjacent regions.
///
/// Every upstream stream reaches the same UnionOperator; tuples are
/// forwarded unchanged, so the output is the superposition of the input
/// processes — which, for equal-rate processes on disjoint adjacent
/// regions, is exactly P(lambda, union of regions). In a query's merge
/// stage (fabric::BuildMergeStage) the cell streams meet in the reorder
/// buffer first, so U receives one sorted batch per query per step.
class UnionOperator final : public Operator {
 public:
  /// Validating factory; see the class comment for the region rule.
  static Result<std::unique_ptr<UnionOperator>> Make(
      std::string name, std::vector<geom::Rect> input_regions);

  Status Push(const Tuple& tuple) override;

  /// Batch-native: one coverage-table lookup per active row for the
  /// out-of-region diagnostic, then the whole batch is forwarded in a
  /// single emit.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kUnion; }

  /// The merged output region R*_3.
  const geom::Rect& output_region() const { return output_region_; }

  /// The input regions.
  const std::vector<geom::Rect>& input_regions() const {
    return input_regions_;
  }

  /// Tuples that arrived outside every input region (still forwarded, but
  /// counted as a topology diagnostic). Exactly the rows for which no
  /// input region's half-open Rect::Contains holds.
  std::uint64_t out_of_region() const { return out_of_region_; }

  /// \name Checkpoint support
  /// Mutable state is the base counters plus the out-of-region
  /// diagnostic; the regions are construction inputs.
  ///@{
  void SaveState(StateWriter& w) const {
    WriteOperatorCounters(w, *this);
    w.WriteU64(out_of_region_);
  }
  Status RestoreState(StateReader& r) {
    CRAQR_RETURN_NOT_OK(ReadOperatorCounters(r, this));
    return r.ReadU64(&out_of_region_);
  }
  ///@}

 private:
  UnionOperator(std::string name, std::vector<geom::Rect> input_regions,
                const geom::Rect& output_region)
      : Operator(std::move(name)),
        input_regions_(std::move(input_regions)),
        output_region_(output_region) {}

  /// Fills xs_, ys_ and covered_ from the input regions (at Make).
  void BuildCoverage();
  /// True when some input region contains (x, y) (half-open), by one
  /// lookup in the coverage table.
  bool Covers(double x, double y) const;

  std::vector<geom::Rect> input_regions_;
  geom::Rect output_region_;
  std::uint64_t out_of_region_ = 0;
  /// Distinct x / y edges of the input regions, ascending. They cut the
  /// plane into (xs_.size() + 1) x (ys_.size() + 1) elementary bands.
  std::vector<double> xs_;
  std::vector<double> ys_;
  /// Row-major (y band, x band) table: 1 where an input region covers
  /// the elementary cell.
  std::vector<std::uint8_t> covered_;
};

}  // namespace ops
}  // namespace craqr
