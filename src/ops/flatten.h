#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "geometry/rect.h"
#include "ops/operator.h"
#include "ops/state_serde.h"
#include "pointprocess/estimate.h"

/// \file flatten.h
/// \brief The F (Flatten) PMAT operator (paper Section IV-B-1, Eq. 3).
///
/// Flatten converts a single-attribute *inhomogeneous* MDPP
/// P~(lambda~, R*) into an approximately *homogeneous* process
/// P(lambda-bar, R*): it estimates the conditional rate lambda~(t,x,y;theta)
/// from the incoming tuples (batch MLE, or online SGD over sliding
/// windows), then retains each tuple i with the paper's retaining
/// probability
///
///   p_i = lambda-bar / (lambda~(p_i; theta) * lambda_c),
///   lambda_c = sum_i 1 / lambda~(p_i; theta),
///
/// so that more tuples survive in areas of low rate and fewer in areas of
/// high rate. Tuples whose retaining probability exceeds 1 are *rate
/// violations*: their probability is rounded down to 1 and the operator
/// reports the percent rate violation N_v of the batch, which the
/// request/response handler uses to tune its acquisition budget
/// (paper Section V "Budget Tuning").

namespace craqr {
namespace ops {

/// \brief How FlattenConfig::target_rate is interpreted.
enum class FlattenTargetMode {
  /// `target_rate` is lambda-bar as an expected *count of retained tuples
  /// per batch* — the literal reading of Eq. (3), whose retaining
  /// probabilities sum to lambda-bar.
  kCountPerBatch,
  /// `target_rate` is a rate per unit volume (tuples/km^2/min); each batch
  /// converts it to an expected count via `rate * Volume(batch window)`.
  /// This is the mode used for acquisitional queries.
  kRatePerVolume,
};

/// \brief Estimation strategy of the F operator.
enum class FlattenMode {
  /// Buffer `batch_size` tuples, fit theta by exact MLE, flatten the batch
  /// (the paper's primary formulation).
  kBatch,
  /// Per-tuple online SGD estimation over a sliding window (the paper's
  /// "the flattening operation can also be performed over sliding windows
  /// ... using online parameter estimation algorithms like stochastic
  /// gradient descent").
  kOnline,
};

/// \brief Configuration of a Flatten operator.
struct FlattenConfig {
  /// The operator's region R*.
  geom::Rect region;
  /// Desired output rate lambda-bar; see `target_mode`.
  double target_rate = 1.0;
  /// Interpretation of `target_rate`.
  FlattenTargetMode target_mode = FlattenTargetMode::kRatePerVolume;
  /// Batch vs online estimation.
  FlattenMode mode = FlattenMode::kBatch;
  /// Batch size n (kBatch mode).
  std::size_t batch_size = 256;
  /// Batches smaller than this skip the MLE and use the homogeneous
  /// estimate (uniform retaining probability target/n). Four-parameter
  /// estimation on a handful of points is noise; the noise inflates some
  /// p_i beyond 1 where they clamp, silently biasing the delivered rate
  /// low. Below this size Flatten degrades gracefully to plain thinning.
  std::size_t min_batch_for_estimation = 8;
  /// Intensity lower clamp used in retaining probabilities.
  double min_rate = 1e-9;
  /// Sliding-window length for online violation tracking (kOnline mode).
  std::size_t violation_window = 512;
  /// Tuples consumed before the online estimate is trusted (kOnline mode);
  /// tuples during warm-up are forwarded unthinned.
  std::size_t online_warmup = 32;
  /// Online estimator step-size schedule (kOnline mode).
  pp::SgdOptions sgd;
};

/// \brief Per-batch diagnostics reported by the F operator.
struct FlattenBatchReport {
  /// \brief Simulation time (minutes) at which the batch completed: the
  /// latest tuple time the batch covers (its completing tuple's time, for
  /// the time-monotone streams the handler produces). Lets feedback
  /// consumers replay reports from many cells — or many shards — in one
  /// canonical time order (see StreamFabricator / ShardedFabricator).
  double completed_at = 0.0;
  /// Batch size n.
  std::size_t n = 0;
  /// Number of tuples with retaining probability > 1.
  std::size_t violations = 0;
  /// Percent rate violation N_v in [0, 100].
  double violation_percent = 0.0;
  /// Estimated theta of Eq. (1) for this batch.
  std::array<double, 4> theta{};
  /// The batch normalising constant lambda_c.
  double lambda_c = 0.0;
  /// Expected retained count (lambda-bar expressed as a count).
  double target_count = 0.0;
  /// Tuples actually forwarded downstream.
  std::size_t retained = 0;
};

/// \brief The Flatten operator.
class FlattenOperator final : public Operator {
 public:
  /// Invoked after every processed batch (kBatch) or every
  /// `violation_window` tuples (kOnline) with fresh diagnostics; wired to
  /// the budget tuner by the fabricator.
  using ReportCallback = std::function<void(const FlattenBatchReport&)>;

  /// Validating factory. Requires a region with positive area, a positive
  /// target rate, batch_size >= 2 in batch mode, and kRatePerVolume in
  /// online mode (a per-batch count is meaningless without batches).
  static Result<std::unique_ptr<FlattenOperator>> Make(std::string name,
                                                       const FlattenConfig& config,
                                                       Rng rng);

  Status Push(const Tuple& tuple) override;

  /// Batch-native: accumulates the incoming batch into the estimation
  /// buffer with exactly the per-tuple firing boundaries (kBatch), or
  /// runs one estimator/RNG sweep deselecting dropped tuples (kOnline).
  /// Retained tuples leave as whole (selected) batches without being
  /// moved; discarded tuples reach the side output as one batch per
  /// firing.
  Status PushBatch(TupleBatch& batch) override;

  /// Processes any buffered partial batch (kBatch mode).
  Status Flush() override;

  OperatorKind kind() const override { return OperatorKind::kFlatten; }

  /// The operator's region R*.
  const geom::Rect& region() const { return config_.region; }

  /// Current target rate lambda-bar.
  double target_rate() const { return config_.target_rate; }

  /// \brief Raises or lowers the output rate; used by the fabricator when
  /// query insertion requires "the output rate of the F-operator [to be]
  /// changed to a value greater than the output rate of the first
  /// T-operator" (paper Section V rule 3).
  Status SetTargetRate(double target_rate);

  /// N_v of the most recent batch / window, in percent.
  double last_violation_percent() const { return last_report_.violation_percent; }

  /// Full diagnostics of the most recent batch / window.
  const FlattenBatchReport& last_report() const { return last_report_; }

  /// Running history of per-batch N_v values.
  const RunningStats& violation_history() const { return violation_history_; }

  /// Registers the diagnostics callback (at most one).
  void SetReportCallback(ReportCallback callback) {
    report_callback_ = std::move(callback);
  }

  /// \brief Optional side output for discarded tuples ("if necessary, the
  /// discarded tuples can be stored separately").
  void SetDiscardedOutput(Operator* discarded) { discarded_ = discarded; }

  /// \name Checkpoint support
  /// Serializes every mutable field — the current target rate, the RNG
  /// phase, the estimation buffer, the time-coverage cursor, the online
  /// estimator (domain + parameters), the violation window and counters —
  /// so a restored operator resumes mid-batch/mid-window byte-exactly.
  /// RestoreState must be applied to an operator built by Make with the
  /// same configuration (the region, mode and sizes are construction
  /// inputs re-supplied by the checkpoint's topology record).
  ///@{
  void SaveState(StateWriter& w) const;
  Status RestoreState(StateReader& r);
  ///@}

  /// Evacuates the estimation buffer's string payloads before pool
  /// generation retirement (memory governor) — the F buffer is the one
  /// cell-topology store that spans epochs mid-batch.
  void ReinternStrings(ValuePool& pool) override {
    buffer_.ReinternStrings(pool);
  }

 private:
  FlattenOperator(std::string name, const FlattenConfig& config, Rng rng);

  Status ProcessBufferedBatch();
  Status PushOnline(const Tuple& tuple);
  Status PushOnlineBatch(TupleBatch& batch);
  /// Advances the online estimator with one observation point (warm-up,
  /// window report, retention draw) and returns whether the tuple is
  /// retained. Shared by the per-tuple and batch paths so both draw
  /// identically; takes only the point — the estimator never touches the
  /// other columns.
  Result<bool> OnlineStep(const geom::SpaceTimePoint& point);
  Status Discard(const Tuple& tuple);
  void PublishReport(const FlattenBatchReport& report);

  FlattenConfig config_;
  Rng rng_;
  /// Estimation buffer (kBatch); always plain (built by appends), so the
  /// MLE fit reads its point column as a zero-copy span. After a firing's
  /// retain sweep it IS the retained batch (selection active) and leaves
  /// through Emit without any moves. kOnline uses it only inside one
  /// PushBatch, as the compacted copy of a selected input; it is empty
  /// between pushes.
  TupleBatch buffer_;
  /// Recycled per-firing scratch: discarded tuples (when a side output is
  /// connected) and the per-tuple rate column of the estimation batch.
  TupleBatch discard_scratch_;
  std::vector<double> rates_scratch_;
  /// Recycled clamped per-row retention probabilities and Bernoulli mask
  /// of the vectorized batch sweep.
  std::vector<double> probs_scratch_;
  std::vector<std::uint8_t> mask_scratch_;
  /// Start of the next batch's time coverage: batches are priced over the
  /// full elapsed interval since the previous batch (quiet gaps included),
  /// not just the tuple span — otherwise a starved stream reports a
  /// near-zero window volume, the target count collapses and N_v can never
  /// signal under-supply to the budget tuner.
  double coverage_start_ = std::numeric_limits<double>::quiet_NaN();
  std::optional<pp::SgdEstimator> sgd_;
  SlidingWindow online_probs_;
  std::size_t online_seen_ = 0;
  FlattenBatchReport last_report_;
  RunningStats violation_history_;
  ReportCallback report_callback_;
  Operator* discarded_ = nullptr;
};

}  // namespace ops
}  // namespace craqr
