#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "ops/operator.h"

/// \file extras.h
/// \brief Extension PMAT operators beyond the paper's four.
///
/// The paper notes "we have researched many more operators than presented
/// below, but due to space constraints ... we only discuss four".  This
/// header provides the natural complements used by the fabricator, the
/// benchmarks and downstream applications: Superpose, Filter, Map,
/// RateMonitor, Sink and PassThrough.

namespace craqr {
namespace ops {

/// \brief S: superposes co-located point processes.  The superposition of
/// independent Poisson processes on the same region is Poisson with the
/// summed rate, so wiring two P(lambda_i, R*) streams into one Superpose
/// yields P(lambda_1 + lambda_2, R*).
class SuperposeOperator final : public Operator {
 public:
  /// Creates a superpose operator.
  static Result<std::unique_ptr<SuperposeOperator>> Make(std::string name);

  Status PushBatch(TupleBatch& batch) override;
  OperatorKind kind() const override { return OperatorKind::kSuperpose; }

 private:
  explicit SuperposeOperator(std::string name) : Operator(std::move(name)) {}
};

/// \brief Sel: retains tuples satisfying a predicate (e.g. value filters on
/// the acquired attribute). Deterministic — unlike Thin it does not change
/// the process's law unless the predicate correlates with position.
class FilterOperator final : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  /// Creates a filter; requires a callable predicate.
  static Result<std::unique_ptr<FilterOperator>> Make(std::string name,
                                                      Predicate predicate);

  /// In-place compaction of the tuples satisfying the
  /// predicate, then one downstream emit.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kFilter; }

 private:
  FilterOperator(std::string name, Predicate predicate)
      : Operator(std::move(name)), predicate_(std::move(predicate)) {}

  Predicate predicate_;
};

/// \brief Map: applies a transform to each tuple (unit conversion,
/// calibration, anonymisation of sensor ids, ...).
class MapOperator final : public Operator {
 public:
  using Transform = std::function<Tuple(const Tuple&)>;

  /// Creates a map; requires a callable transform.
  static Result<std::unique_ptr<MapOperator>> Make(std::string name,
                                                   Transform transform);

  /// Transforms every tuple in place, then one emit.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kMap; }

 private:
  MapOperator(std::string name, Transform transform)
      : Operator(std::move(name)), transform_(std::move(transform)) {}

  Transform transform_;
};

/// \brief Mon: windowed empirical-rate probe.
///
/// Forwards every tuple unchanged while recording the tuple count of each
/// fixed-duration time window; per-window counts divided by
/// `window_duration * area` estimate the stream's spatio-temporal rate.
/// Used by tests and benches to verify delivered rates against requested
/// rates.
class RateMonitorOperator final : public Operator {
 public:
  /// Creates a monitor with a window of `window_duration` minutes over a
  /// stream whose spatial extent has `area` km^2. Both must be positive.
  static Result<std::unique_ptr<RateMonitorOperator>> Make(
      std::string name, double window_duration, double area);

  /// One sweep advancing the window accounting tuple by tuple (a window
  /// closes at the first arrival past its end, wherever batches are cut),
  /// then the batch is forwarded whole.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kRateMonitor; }

  /// \brief Closes the currently open (partial) window and records it.
  /// Windows otherwise close on event time only — batch-boundary Flush()
  /// deliberately does NOT close them, since a flush happens every
  /// processing step, not every window.
  void CloseCurrentWindow();

  /// Statistics over closed windows' empirical rates (tuples/km^2/min).
  const RunningStats& window_rates() const { return window_rates_; }

  /// Mean empirical rate over all closed windows.
  double MeanRate() const { return window_rates_.Mean(); }

 private:
  RateMonitorOperator(std::string name, double window_duration, double area)
      : Operator(std::move(name)),
        window_duration_(window_duration),
        area_(area) {}

  /// Advances the window accounting by one arrival at time `t`.
  void Observe(double t);

  void CloseWindowsUpTo(double t);

  double window_duration_;
  double area_;
  bool window_open_ = false;
  double window_end_ = 0.0;
  std::uint64_t window_count_ = 0;
  RunningStats window_rates_;
};

/// \brief Sink: the endpoint of a fabricated crowdsensed data stream.
///
/// Two shapes exist. A storing sink (Make) collects tuples into a capped
/// in-memory buffer; once full, the oldest tuples are evicted (the stream
/// is a stream, not a table). A delivery-only sink (MakeBatched) hands
/// every batch to a `BatchCallback` and retains nothing — e.g. the
/// sharded runtime's partial streams, which splice each delivered batch
/// into the shard outbox under one mutex acquisition. Counters account
/// arrivals identically either way.
class SinkOperator final : public Operator {
 public:
  /// Receives each delivered batch; active tuples only, arrival order.
  /// The batch is the caller's storage — copy out, never restructure.
  using BatchCallback = std::function<void(const TupleBatch&)>;

  /// Creates a sink retaining up to `capacity` most-recent tuples
  /// (capacity >= 1).
  static Result<std::unique_ptr<SinkOperator>> Make(
      std::string name, std::size_t capacity = 1 << 20);

  /// Creates a delivery-only sink: every pushed batch reaches `callback`;
  /// nothing is buffered.
  static Result<std::unique_ptr<SinkOperator>> MakeBatched(
      std::string name, BatchCallback callback);

  /// One batch-callback invocation (batched sinks) or one storing sweep
  /// that evicts at the arrival that finds the buffer full, wherever
  /// batches are cut.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kSink; }

  /// Retained tuples, oldest first.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Total tuples ever received (including evicted ones).
  std::uint64_t total_received() const { return stats().tuples_in; }

  /// Clears the buffer (counters are preserved).
  void Clear() { tuples_.clear(); }

  /// Evacuates retained tuples' string payloads before pool generation
  /// retirement (memory governor) — the sink buffer stores delivered
  /// streams for arbitrarily long.
  void ReinternStrings(ValuePool& pool) override {
    for (Tuple& t : tuples_) {
      if (t.value.kind() == PayloadKind::kString) {
        t.value = PayloadRef::InternedString(pool.ReinternHandle(
            pool.Get(t.value.string_id(), t.value.string_generation())));
      }
    }
  }

 private:
  SinkOperator(std::string name, std::size_t capacity,
               BatchCallback batch_callback)
      : Operator(std::move(name)),
        capacity_(capacity),
        batch_callback_(std::move(batch_callback)) {}

  /// Appends one tuple to the capped buffer, evicting first when full.
  void Store(const Tuple& tuple);

  std::size_t capacity_;
  BatchCallback batch_callback_;
  std::vector<Tuple> tuples_;
};

/// \brief Id: forwards tuples unchanged. Used as an explicit branching
/// point and as a neutral connector in topology surgery.
class PassThroughOperator final : public Operator {
 public:
  /// Creates a pass-through operator.
  static Result<std::unique_ptr<PassThroughOperator>> Make(std::string name);

  Status PushBatch(TupleBatch& batch) override;
  OperatorKind kind() const override { return OperatorKind::kPassThrough; }

 private:
  explicit PassThroughOperator(std::string name) : Operator(std::move(name)) {}
};

}  // namespace ops
}  // namespace craqr
