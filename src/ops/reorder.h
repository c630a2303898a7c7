#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "ops/operator.h"
#include "ops/state_serde.h"

/// \file reorder.h
/// \brief Ord: canonical delivery-order restoration for merge stages.
///
/// A multi-cell query's merge stage is fed by several upstream cell chains
/// (possibly living on several shards). Within one processing step each
/// chain delivers a time-ordered subsequence, but the interleaving *across*
/// chains depends on dispatch order — historically chain-grouped in the
/// in-process fabricator and time-sorted in the sharded runtime's
/// collector. ReorderOperator removes that divergence at the source: it
/// heads the merge stage (Ord -> U -> Mon -> Sink), buffers everything
/// pushed during a processing step and, at the step-boundary Flush(),
/// emits one batch sorted by (point.t, id) — the canonical delivery order.
/// Everything downstream, U included, therefore runs once per query per
/// step. Both execution paths build their merge stages through
/// fabric::BuildMergeStage, so delivery order (not just content) is
/// identical for every shard count, num_shards == 1 included.
///
/// Tuple ids are unique, so (t, id) is a total order and the sort is
/// deterministic; the stable sort additionally preserves arrival order on
/// (impossible in practice) full ties.

namespace craqr {
namespace ops {

/// \brief Buffers a processing step's deliveries and flushes them in
/// canonical (t, id) order.
class ReorderOperator final : public Operator {
 public:
  /// Creates a reorder buffer.
  static Result<std::unique_ptr<ReorderOperator>> Make(std::string name);

  /// Column-appends the active tuples to the step buffer.
  Status PushBatch(TupleBatch& batch) override;

  /// Sorts the buffered step by (t, id) and emits it as one batch.
  Status Flush() override;

  OperatorKind kind() const override { return OperatorKind::kReorder; }

  /// Tuples currently buffered (between a push and the next Flush).
  std::size_t buffered() const { return buffer_.size(); }

  /// Evacuates buffered string payloads before pool generation
  /// retirement (memory governor).
  void ReinternStrings(ValuePool& pool) override {
    buffer_.ReinternStrings(pool);
  }

  /// \name Checkpoint support
  /// Serializes the base counters and any buffered step (checkpoints are
  /// taken at step boundaries, where the buffer has been flushed, but the
  /// format covers a mid-step capture too).
  ///@{
  void SaveState(StateWriter& w) const {
    WriteOperatorCounters(w, *this);
    WriteBatchRows(w, buffer_);
  }
  Status RestoreState(StateReader& r) {
    CRAQR_RETURN_NOT_OK(ReadOperatorCounters(r, this));
    buffer_.Clear();
    return ReadBatchRows(r, &buffer_);
  }
  ///@}

 private:
  explicit ReorderOperator(std::string name) : Operator(std::move(name)) {}

  /// Recycled step buffer; always drained by Flush().
  TupleBatch buffer_;
};

}  // namespace ops
}  // namespace craqr
