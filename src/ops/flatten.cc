#include "ops/flatten.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/simd.h"
#include "pointprocess/window.h"

namespace craqr {
namespace ops {

namespace {

Status ValidateConfig(const FlattenConfig& config) {
  if (config.region.IsEmpty()) {
    return Status::InvalidArgument("flatten region must have positive area");
  }
  if (!(config.target_rate > 0.0) || !std::isfinite(config.target_rate)) {
    return Status::InvalidArgument("flatten target rate must be > 0");
  }
  if (!(config.min_rate > 0.0)) {
    return Status::InvalidArgument("flatten min_rate must be > 0");
  }
  if (config.mode == FlattenMode::kBatch && config.batch_size < 2) {
    return Status::InvalidArgument(
        "flatten batch size must be >= 2 (theta estimation needs data)");
  }
  if (config.mode == FlattenMode::kOnline &&
      config.target_mode == FlattenTargetMode::kCountPerBatch) {
    return Status::InvalidArgument(
        "online flatten requires a per-volume target rate (kRatePerVolume)");
  }
  if (config.mode == FlattenMode::kOnline && config.violation_window < 1) {
    return Status::InvalidArgument("violation window must be >= 1");
  }
  return Status::OK();
}

}  // namespace

FlattenOperator::FlattenOperator(std::string name, const FlattenConfig& config,
                                 Rng rng)
    : Operator(std::move(name)),
      config_(config),
      rng_(rng),
      online_probs_(std::max<std::size_t>(config.violation_window, 1)) {}

Result<std::unique_ptr<FlattenOperator>> FlattenOperator::Make(
    std::string name, const FlattenConfig& config, Rng rng) {
  CRAQR_RETURN_NOT_OK(ValidateConfig(config));
  auto op = std::unique_ptr<FlattenOperator>(
      new FlattenOperator(std::move(name), config, rng));
  if (config.mode == FlattenMode::kBatch) {
    op->buffer_.Reserve(config.batch_size);
  }
  return op;
}

Status FlattenOperator::SetTargetRate(double target_rate) {
  if (!(target_rate > 0.0) || !std::isfinite(target_rate)) {
    return Status::InvalidArgument("flatten target rate must be > 0");
  }
  config_.target_rate = target_rate;
  return Status::OK();
}

Status FlattenOperator::Push(const Tuple& tuple) {
  CountIn();
  if (config_.mode == FlattenMode::kOnline) {
    return PushOnline(tuple);
  }
  buffer_.Append(tuple);
  if (buffer_.size() >= config_.batch_size) {
    return ProcessBufferedBatch();
  }
  return Status::OK();
}

Status FlattenOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  if (config_.mode == FlattenMode::kOnline) {
    return PushOnlineBatch(batch);
  }
  // Column-copy the active rows into the estimation buffer, firing at
  // exactly the buffer boundaries the per-tuple path fires at. The
  // caller's storage is left in place (it may be shared across Partition
  // ports). A batch that leaves the buffer short of batch_size holds no
  // firing boundary and is appended in one bulk copy.
  if (buffer_.size() + batch.size() < config_.batch_size) {
    buffer_.AppendActiveFrom(batch);
    return Status::OK();
  }
  Status status = Status::OK();
  batch.ForEachRaw([this, &status, &batch](std::uint32_t raw) {
    if (!status.ok()) {
      return;
    }
    buffer_.AppendRow(batch, raw);
    if (buffer_.size() >= config_.batch_size) {
      status = ProcessBufferedBatch();
    }
  });
  return status;
}

Status FlattenOperator::Flush() {
  if (config_.mode == FlattenMode::kBatch && !buffer_.empty()) {
    return ProcessBufferedBatch();
  }
  return Status::OK();
}

Status FlattenOperator::Discard(const Tuple& tuple) {
  if (discarded_ != nullptr) {
    return discarded_->Push(tuple);
  }
  return Status::OK();
}

void FlattenOperator::PublishReport(const FlattenBatchReport& report) {
  last_report_ = report;
  violation_history_.Add(report.violation_percent);
  if (report_callback_) {
    report_callback_(report);
  }
}

Status FlattenOperator::ProcessBufferedBatch() {
  const std::size_t n = buffer_.size();
  if (n == 0) {
    return Status::OK();
  }

  // The buffer is plain (built by appends), so its point column is a
  // zero-copy span — the MLE fit and the rate sweep below read it in
  // place; no per-tuple gather, no variant in sight.
  const Span<const geom::SpaceTimePoint> points = buffer_.Points();

  // The batch's space-time window: the configured region R* over the time
  // covered since the previous batch. Using full coverage (rather than the
  // tuple span) keeps the per-volume target honest on sparse streams.
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = -std::numeric_limits<double>::infinity();
  for (const auto& point : points) {
    t_min = std::min(t_min, point.t);
    t_max = std::max(t_max, point.t);
  }
  if (!std::isnan(coverage_start_) && coverage_start_ < t_min) {
    t_min = coverage_start_;
  }
  if (!(t_max > t_min)) {
    t_max = t_min + 1e-6;  // degenerate single-instant batch
  }
  coverage_start_ = t_max;
  const pp::SpaceTimeWindow window{t_min, t_max, config_.region};

  // Estimate the conditional rate lambda~(.; theta) of the batch (Eq. 1)
  // by exact maximum likelihood over the batch's point column. On
  // pathological batches the MLE can fail (e.g. all points identical);
  // fall back to the homogeneous estimate so the operator degrades to
  // plain thinning.
  std::array<double, 4> theta{static_cast<double>(n) / window.Volume(), 0.0,
                              0.0, 0.0};
  if (n >= config_.min_batch_for_estimation) {
    auto fit = pp::FitLinearMle(points, window);
    if (fit.ok()) {
      theta = fit->theta;
    }
  }

  const auto rate_at = [&](const geom::SpaceTimePoint& p) {
    const double linear =
        theta[0] + theta[1] * p.t + theta[2] * p.x + theta[3] * p.y;
    return std::max(linear, config_.min_rate);
  };

  // lambda_c = sum_i 1 / lambda~(p_i; theta)  (constant over the batch).
  double lambda_c = 0.0;
  rates_scratch_.clear();
  rates_scratch_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates_scratch_.push_back(rate_at(points[i]));
    lambda_c += 1.0 / rates_scratch_[i];
  }

  const double target_count =
      config_.target_mode == FlattenTargetMode::kCountPerBatch
          ? config_.target_rate
          : config_.target_rate * window.Volume();

  FlattenBatchReport report;
  report.completed_at = t_max;
  report.n = n;
  report.theta = theta;
  report.lambda_c = lambda_c;
  report.target_count = target_count;

  // Eq. (3): p_i = lambda-bar / (lambda~_i * lambda_c), rounded down to 1
  // on rate violations. Vectorized as three column passes over the
  // buffer: (1) clamp the probabilities and count violations
  // (branch-free), (2) one batch Bernoulli mask fill in arrival order —
  // clamped rows (p == 1) consume no draw, exactly like the scalar
  // Bernoulli — and (3) one mask-compact selection rewrite. The buffer
  // itself then leaves as the retained batch — no tuple moves on the
  // retain path. Discards move to the side batch only when a discard
  // output is connected.
  probs_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = target_count / (rates_scratch_[i] * lambda_c);
    report.violations += (p > 1.0);
    probs_scratch_[i] = std::min(p, 1.0);
  }
  mask_scratch_.resize(n);
  rng_.FillBernoulliMask({probs_scratch_.data(), n}, {mask_scratch_.data(), n});
  report.retained = simd::MaskCount({mask_scratch_.data(), n});
  buffer_.RetainFromMask({mask_scratch_.data(), n},
                         discarded_ != nullptr ? &discard_scratch_ : nullptr);
  report.violation_percent =
      100.0 * static_cast<double>(report.violations) / static_cast<double>(n);

  Status status = Emit(buffer_);
  buffer_.Clear();
  if (status.ok() && discarded_ != nullptr && !discard_scratch_.empty()) {
    status = discarded_->PushBatch(discard_scratch_);
  }
  discard_scratch_.Clear();
  CRAQR_RETURN_NOT_OK(status);
  PublishReport(report);
  return Status::OK();
}

Result<bool> FlattenOperator::OnlineStep(const geom::SpaceTimePoint& point) {
  if (!sgd_.has_value()) {
    // Lazily bind the estimation domain at the first tuple so the
    // normalised time frame starts at the stream's own epoch.
    const pp::SpaceTimeWindow domain{point.t, point.t + 1.0, config_.region};
    pp::SgdOptions sgd_options = config_.sgd;
    // A global time trend is not identifiable on an unbounded stream; the
    // online estimator tracks level drift through theta0 instead.
    sgd_options.use_time_feature = false;
    auto estimator = pp::SgdEstimator::Make(domain, sgd_options);
    if (!estimator.ok()) {
      return estimator.status();
    }
    sgd_.emplace(estimator.MoveValue());
  }
  sgd_->Update(point);
  ++online_seen_;

  if (online_seen_ <= config_.online_warmup) {
    return true;  // warm-up: forward unthinned
  }

  const double rate = sgd_->RateAt(point);
  double p = config_.target_rate / rate;
  const bool violation = p > 1.0;
  p = std::min(p, 1.0);
  online_probs_.Push(violation ? 1.0 : 0.0);

  if (online_seen_ % std::max<std::size_t>(config_.violation_window, 1) == 0) {
    FlattenBatchReport report;
    report.completed_at = point.t;
    report.n = online_probs_.size();
    report.violations =
        static_cast<std::size_t>(std::llround(online_probs_.Sum()));
    report.violation_percent = 100.0 * online_probs_.Mean();
    report.theta = sgd_->theta();
    report.target_count = config_.target_rate;
    PublishReport(report);
  }

  return rng_.Bernoulli(p);
}

Status FlattenOperator::PushOnline(const Tuple& tuple) {
  CRAQR_ASSIGN_OR_RETURN(const bool keep, OnlineStep(tuple.point));
  if (keep) {
    return Emit(tuple);
  }
  return Discard(tuple);
}

void FlattenOperator::SaveState(StateWriter& w) const {
  WriteOperatorCounters(w, *this);
  w.WriteDouble(config_.target_rate);
  WriteRngState(w, rng_);
  WriteBatchRows(w, buffer_);
  w.WriteDouble(coverage_start_);
  w.WriteBool(sgd_.has_value());
  if (sgd_.has_value()) {
    // Domain times only: the spatial region is config_.region by
    // construction (OnlineStep's lazy bind), which the restoring side
    // re-supplies.
    w.WriteDouble(sgd_->domain().t_begin);
    w.WriteDouble(sgd_->domain().t_end);
    const pp::SgdEstimator::State st = sgd_->Save();
    for (const double a : st.a) {
      w.WriteDouble(a);
    }
    w.WriteDouble(st.last_t);
    w.WriteU64(st.updates);
  }
  WriteSlidingWindow(w, online_probs_);
  w.WriteU64(online_seen_);
  w.WriteDouble(last_report_.completed_at);
  w.WriteU64(last_report_.n);
  w.WriteU64(last_report_.violations);
  w.WriteDouble(last_report_.violation_percent);
  for (const double t : last_report_.theta) {
    w.WriteDouble(t);
  }
  w.WriteDouble(last_report_.lambda_c);
  w.WriteDouble(last_report_.target_count);
  w.WriteU64(last_report_.retained);
  WriteRunningStats(w, violation_history_);
}

Status FlattenOperator::RestoreState(StateReader& r) {
  CRAQR_RETURN_NOT_OK(ReadOperatorCounters(r, this));
  CRAQR_RETURN_NOT_OK(r.ReadDouble(&config_.target_rate));
  CRAQR_RETURN_NOT_OK(ReadRngState(r, &rng_));
  buffer_.Clear();
  CRAQR_RETURN_NOT_OK(ReadBatchRows(r, &buffer_));
  CRAQR_RETURN_NOT_OK(r.ReadDouble(&coverage_start_));
  bool has_sgd = false;
  CRAQR_RETURN_NOT_OK(r.ReadBool(&has_sgd));
  sgd_.reset();
  if (has_sgd) {
    double t_begin = 0.0;
    double t_end = 0.0;
    CRAQR_RETURN_NOT_OK(r.ReadDouble(&t_begin));
    CRAQR_RETURN_NOT_OK(r.ReadDouble(&t_end));
    pp::SgdEstimator::State st;
    for (double& a : st.a) {
      CRAQR_RETURN_NOT_OK(r.ReadDouble(&a));
    }
    CRAQR_RETURN_NOT_OK(r.ReadDouble(&st.last_t));
    CRAQR_RETURN_NOT_OK(r.ReadU64(&st.updates));
    // Rebuild over the same domain (regenerating the derived
    // normalisation scales), then apply the saved parameters.
    const pp::SpaceTimeWindow domain{t_begin, t_end, config_.region};
    pp::SgdOptions sgd_options = config_.sgd;
    sgd_options.use_time_feature = false;
    auto estimator = pp::SgdEstimator::Make(domain, sgd_options);
    if (!estimator.ok()) {
      return estimator.status();
    }
    sgd_.emplace(estimator.MoveValue());
    sgd_->Restore(st);
  }
  CRAQR_RETURN_NOT_OK(ReadSlidingWindow(r, &online_probs_));
  std::uint64_t online_seen = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&online_seen));
  online_seen_ = static_cast<std::size_t>(online_seen);
  FlattenBatchReport report;
  CRAQR_RETURN_NOT_OK(r.ReadDouble(&report.completed_at));
  std::uint64_t n = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&n));
  report.n = static_cast<std::size_t>(n);
  std::uint64_t violations = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&violations));
  report.violations = static_cast<std::size_t>(violations);
  CRAQR_RETURN_NOT_OK(r.ReadDouble(&report.violation_percent));
  for (double& t : report.theta) {
    CRAQR_RETURN_NOT_OK(r.ReadDouble(&t));
  }
  CRAQR_RETURN_NOT_OK(r.ReadDouble(&report.lambda_c));
  CRAQR_RETURN_NOT_OK(r.ReadDouble(&report.target_count));
  std::uint64_t retained = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&retained));
  report.retained = static_cast<std::size_t>(retained);
  last_report_ = report;
  return ReadRunningStats(r, &violation_history_);
}

Status FlattenOperator::PushOnlineBatch(TupleBatch& batch) {
  // One estimator/RNG sweep in arrival order; dropped tuples are
  // deselected (or moved to the discard side batch), survivors stay put.
  Status first = Status::OK();
  batch.RetainRaw(
      [this, &first, &batch](std::uint32_t raw) {
        if (!first.ok()) {
          return false;  // already failed; decisions no longer matter
        }
        auto keep = OnlineStep(batch.point_at(raw));
        if (!keep.ok()) {
          first = keep.status();
          return false;
        }
        return *keep;
      },
      discarded_ != nullptr ? &discard_scratch_ : nullptr);
  if (!first.ok()) {
    discard_scratch_.Clear();
    return first;
  }
  Status status = Emit(batch);
  if (status.ok() && discarded_ != nullptr && !discard_scratch_.empty()) {
    status = discarded_->PushBatch(discard_scratch_);
  }
  discard_scratch_.Clear();
  return status;
}

}  // namespace ops
}  // namespace craqr
