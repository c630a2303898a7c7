#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"

/// \file operator.h
/// \brief Base class of PMAT (point-process transformation) operators.
///
/// PMAT operators are push-based streaming operators over crowdsensed
/// tuples (paper Section IV-B).  Operators are wired into an execution
/// topology: each operator forwards accepted tuples to its downstream
/// outputs.  An operator with more than one output is a *branching point*
/// in the paper's terminology; the Partition operator routes each tuple to
/// exactly one branch while every other operator broadcasts.
///
/// Execution is batch-at-a-time on the hot path: the fabricator drives
/// each cell topology through `PushBatch`, and batch-native operators
/// forward whole `TupleBatch`es downstream (moving the batch when a single
/// output consumes it). The tuple-at-a-time `Push` remains both as the
/// fallback the base `PushBatch` uses — so operators opt in one at a time
/// — and as the reference semantics: a batch-driven topology must deliver
/// exactly the streams the per-tuple path delivers.

namespace craqr {
namespace ops {

/// \brief Discriminates operator kinds; mirrors the paper's block labels.
enum class OperatorKind {
  kFlatten,    ///< F: inhomogeneous -> approximately homogeneous
  kThin,       ///< T: rate reduction
  kPartition,  ///< P: spatial split
  kUnion,      ///< U: spatial merge
  kSuperpose,  ///< extension: merge co-located processes (rates add)
  kFilter,     ///< extension: predicate filter
  kMap,        ///< extension: tuple transform
  kRateMonitor,///< extension: windowed empirical-rate probe
  kSink,       ///< stream endpoint collecting the fabricated MCDS
  kPassThrough,///< no-op connector / explicit branching point
  kReorder     ///< merge-stage buffer restoring canonical (t, id) order
};

/// Number of OperatorKind values (dense, 0-based) — sizes the per-kind
/// observability metric tables.
inline constexpr std::size_t kNumOperatorKinds =
    static_cast<std::size_t>(OperatorKind::kReorder) + 1;

/// Short block label for an operator kind ("F", "T", ...).
const char* OperatorKindLabel(OperatorKind kind);

/// \brief True for the kinds that hold tuples between pushes and release
/// them in `Flush` — F (a partial estimation batch) and Ord (the step's
/// deliveries). Every other kind forwards within the push, so
/// Pipeline::FlushAll visits only these.
bool BuffersBetweenPushes(OperatorKind kind);

/// \brief Throughput counters every operator maintains.
struct OperatorStats {
  std::uint64_t tuples_in = 0;
  std::uint64_t tuples_out = 0;
};

/// \brief Base class for all PMAT operators.
///
/// Not thread-safe: a topology is driven by a single thread (the
/// fabricator), matching the paper's per-grid-cell execution model.
class Operator {
 public:
  /// Constructs an operator with a diagnostic name.
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Processes one incoming tuple, possibly emitting to outputs.
  virtual Status Push(const Tuple& tuple) = 0;

  /// \brief Processes a whole batch of tuples (the vectorized hot path).
  ///
  /// Contract:
  ///  - **consumption**: `batch` is consumed. The callee may deselect
  ///    tuples (selection vector), transform active rows in place
  ///    (StoreRowAt), and copy active rows out — but must never
  ///    restructure the caller's storage (no
  ///    Clear/Swap/Materialize/SortByTimeThenId/Append): the storage may
  ///    be shared across a Partition's output ports. The owner treats the
  ///    contents as unspecified afterwards and Clear()s before reuse
  ///    (capacity is retained — recycling). Rows are 56-byte flat values
  ///    (columnar storage, pool-backed string payloads), so "moving" a
  ///    tuple out is an ordinary copy with no heap traffic.
  ///  - **ordering**: active tuples arrive in stream order and
  ///    implementations process them — and in particular draw randomness
  ///    — in that order, so batch execution delivers byte-for-byte the
  ///    per-tuple stream along every downstream edge. When one operator
  ///    consumes several upstream edges (two Partition branches, or a
  ///    multi-cell query's merge head fed by several cell chains), the
  ///    interleaving *across* edges is batch-grouped rather than
  ///    per-tuple-interleaved: the consumer sees the same per-edge
  ///    subsequences, so delivered tuple content is path-independent,
  ///    but cross-edge order (and order-sensitive probes like the rate
  ///    monitor's windows) can differ slightly between execution paths.
  ///  - **counters**: implementations account `OperatorStats` exactly as
  ///    the per-tuple path would (`CountIn(batch.size())` on entry; batch
  ///    `Emit`/`EmitTo` add the emitted batch size to `tuples_out`).
  ///  - **opt-in**: the base implementation falls back to per-tuple
  ///    `Push`, so mixed chains of batch-native and per-tuple operators
  ///    stay correct.
  virtual Status PushBatch(TupleBatch& batch);

  /// \brief Signals a batch boundary (request/response handler batches,
  /// paper Section V "Stream Fabrication"). Buffering operators release
  /// retained tuples here; the default implementation does nothing.
  /// Pipeline::FlushAll calls it only on kinds for which
  /// BuffersBetweenPushes holds, so an override needs such a kind.
  virtual Status Flush() { return Status::OK(); }

  /// \brief Re-interns every string payload the operator retains across
  /// batch boundaries (buffers, stored tuples) into `pool`'s current tier
  /// — the evacuation step the memory governor runs at an epoch barrier
  /// before retiring older pool generations (see value_pool.h). Values
  /// are untouched, only handles move. The default implementation does
  /// nothing; operators with tuple-holding state override it.
  virtual void ReinternStrings(ValuePool& pool) { (void)pool; }

  /// The operator's kind.
  virtual OperatorKind kind() const = 0;

  /// Diagnostic name.
  const std::string& name() const { return name_; }

  /// Adds a downstream operator; returns the output-port index.
  std::size_t AddOutput(Operator* output);

  /// Removes the first edge to `output`; returns true when an edge was
  /// removed. Used by the fabricator's topology surgery (query insertion
  /// and deletion re-wire T-chains).
  bool RemoveOutput(Operator* output);

  /// Downstream operators in port order.
  const std::vector<Operator*>& outputs() const { return outputs_; }

  /// True when this operator has more than one output (the paper's
  /// "branching point").
  bool IsBranchingPoint() const { return outputs_.size() > 1; }

  /// Throughput counters.
  const OperatorStats& stats() const { return stats_; }

  /// Resets throughput counters.
  void ResetStats() { stats_ = OperatorStats(); }

  /// Overwrites throughput counters from a checkpoint. The per-operator
  /// conservation validators compare these across edges, so a restored
  /// topology must resume with its exact pre-crash counters.
  void RestoreStats(const OperatorStats& stats) { stats_ = stats; }

 protected:
  /// Records an arrival; subclasses call this at the top of Push. Also
  /// feeds the process-wide per-operator-kind dispatch metrics
  /// (craqr.ops.<Kind>.*) unless observability is compiled out
  /// (-DCRAQR_OBS_DISABLED) or disabled at runtime (obs::SetEnabled).
  void CountIn() {
    ++stats_.tuples_in;
#ifndef CRAQR_OBS_DISABLED
    RecordDispatch(1);
#endif
  }

  /// Records `n` arrivals; batch-native subclasses call this at the top
  /// of PushBatch.
  void CountIn(std::size_t n) {
    stats_.tuples_in += n;
#ifndef CRAQR_OBS_DISABLED
    RecordDispatch(n);
#endif
  }

  /// Broadcasts a tuple to all outputs (counting it once as emitted).
  Status Emit(const Tuple& tuple);

  /// Sends a tuple to one output port only (Partition-style routing).
  Status EmitTo(std::size_t port, const Tuple& tuple);

  /// \brief Broadcasts a batch to all outputs, counting `batch.size()`
  /// emitted tuples. Outputs are fed in port order; all but the last
  /// receive a copy (via a recycled scratch batch) and the last consumes
  /// the batch itself — so the common single-output edge moves, never
  /// copies. The batch is consumed either way.
  Status Emit(TupleBatch& batch);

  /// Sends a batch to one output port only, counting `batch.size()`
  /// emitted tuples; the downstream operator consumes the batch (move).
  Status EmitTo(std::size_t port, TupleBatch& batch);

 private:
  /// Per-kind dispatch telemetry (evaluation count, tuple count, batch
  /// size histogram); out-of-line so the header needs no obs dependency.
  /// Cheap: three relaxed atomic adds behind one enabled check.
  void RecordDispatch(std::size_t n);

  std::string name_;
  std::vector<Operator*> outputs_;
  OperatorStats stats_;
  /// Recycled copy target for multi-output batch broadcasts; allocated
  /// lazily on the first broadcast so the many single-output operators
  /// (sinks, monitors, untapped chain links) don't carry it.
  std::unique_ptr<TupleBatch> broadcast_scratch_;
};

/// \brief Per-operator throughput-counter conservation check, used by the
/// fabricator invariant validators to assert the batch path accounts
/// `tuples_in`/`tuples_out` exactly like the per-tuple path: forwarding
/// operators (U, S, Id, Map, Mon) emit everything they receive, Partition
/// emits everything it does not count unrouted, a Sink emits nothing, and
/// buffering or dropping operators (F, T, Sel, Ord) never emit more than
/// they received (Ord holds tuples only between a push and the flush that
/// ends the processing step, so validation at step boundaries sees
/// equality).
Status ValidateStatsConservation(const Operator& op);

}  // namespace ops
}  // namespace craqr
