#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ops/operator.h"

/// \file pipeline.h
/// \brief Ownership and wiring helper for execution topologies.
///
/// The fabricator builds per-grid-cell execution topologies out of PMAT
/// operators (paper Section V). A Pipeline owns the operators, preserves
/// insertion order (upstream-first, the order builders naturally use), and
/// offers whole-topology flush and statistics. Flushing visits only the
/// buffering operators (BuffersBetweenPushes), kept in a side list in the
/// same relative order, so a step boundary costs one call per F / Ord
/// rather than one per operator.

namespace craqr {
namespace ops {

/// \brief An owning container of a connected operator topology.
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Transfers ownership of an operator into the pipeline and returns the
  /// raw pointer for wiring. Operators must be added upstream-first if
  /// FlushAll is to release buffered tuples in a single pass.
  template <typename T>
  T* Add(std::unique_ptr<T> op) {
    T* raw = op.get();
    if (BuffersBetweenPushes(raw->kind())) {
      buffering_.push_back(raw);
    }
    operators_.push_back(std::move(op));
    return raw;
  }

  /// Connects `from` -> `to` and returns `from`'s output-port index.
  static std::size_t Connect(Operator* from, Operator* to) {
    return from->AddOutput(to);
  }

  /// Destroys an owned operator. The caller must already have removed all
  /// edges pointing at it; returns true when the operator was owned here.
  bool Remove(Operator* op);

  /// Flushes every buffering operator (F, Ord) in insertion
  /// (upstream-first) order; no other kind holds tuples between pushes.
  Status FlushAll();

  /// All owned operators in insertion order.
  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return operators_;
  }

  /// Number of owned operators.
  std::size_t size() const { return operators_.size(); }

  /// Sum of tuples_in over all operators — the total operator evaluations,
  /// the multi-query cost metric of experiment E7.
  std::uint64_t TotalOperatorEvaluations() const;

  /// Renders the topology as an indented tree per source operator (an
  /// operator no other operator feeds), for debugging and the Fig-2 bench.
  std::string ToDot() const;

 private:
  std::vector<std::unique_ptr<Operator>> operators_;
  /// The owned operators BuffersBetweenPushes selects, in insertion order.
  std::vector<Operator*> buffering_;
};

}  // namespace ops
}  // namespace craqr
