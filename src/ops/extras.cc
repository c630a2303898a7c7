#include "ops/extras.h"

#include <cmath>
#include <utility>

namespace craqr {
namespace ops {

// ---------------------------------------------------------------------------
// SuperposeOperator

Result<std::unique_ptr<SuperposeOperator>> SuperposeOperator::Make(
    std::string name) {
  return std::unique_ptr<SuperposeOperator>(
      new SuperposeOperator(std::move(name)));
}

Status SuperposeOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  return Emit(batch);
}

// ---------------------------------------------------------------------------
// FilterOperator

Result<std::unique_ptr<FilterOperator>> FilterOperator::Make(
    std::string name, Predicate predicate) {
  if (!predicate) {
    return Status::InvalidArgument("filter requires a predicate");
  }
  return std::unique_ptr<FilterOperator>(
      new FilterOperator(std::move(name), std::move(predicate)));
}

Status FilterOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  batch.Retain([this](const Tuple& tuple) { return predicate_(tuple); });
  return Emit(batch);
}

// ---------------------------------------------------------------------------
// MapOperator

Result<std::unique_ptr<MapOperator>> MapOperator::Make(std::string name,
                                                       Transform transform) {
  if (!transform) {
    return Status::InvalidArgument("map requires a transform");
  }
  return std::unique_ptr<MapOperator>(
      new MapOperator(std::move(name), std::move(transform)));
}

Status MapOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  // Gather row -> user transform -> scatter back: Map is the one operator
  // whose contract is expressed over whole tuples, so it pays the 56-byte
  // row round-trip per active tuple.
  batch.ForEachRaw([this, &batch](std::uint32_t raw) {
    batch.StoreRowAt(raw, transform_(batch.RowAt(raw)));
  });
  return Emit(batch);
}

// ---------------------------------------------------------------------------
// RateMonitorOperator

Result<std::unique_ptr<RateMonitorOperator>> RateMonitorOperator::Make(
    std::string name, double window_duration, double area) {
  if (!(window_duration > 0.0) || !std::isfinite(window_duration)) {
    return Status::InvalidArgument("monitor window duration must be > 0");
  }
  if (!(area > 0.0) || !std::isfinite(area)) {
    return Status::InvalidArgument("monitor area must be > 0");
  }
  return std::unique_ptr<RateMonitorOperator>(
      new RateMonitorOperator(std::move(name), window_duration, area));
}

void RateMonitorOperator::CloseWindowsUpTo(double t) {
  while (window_open_ && t >= window_end_) {
    window_rates_.Add(static_cast<double>(window_count_) /
                      (window_duration_ * area_));
    window_count_ = 0;
    window_end_ += window_duration_;
  }
}

void RateMonitorOperator::Observe(double t) {
  if (!window_open_) {
    window_open_ = true;
    window_end_ = t + window_duration_;
  } else {
    CloseWindowsUpTo(t);
  }
  ++window_count_;
}

Status RateMonitorOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  // Window accounting reads only the time column.
  batch.ForEachRaw(
      [this, &batch](std::uint32_t raw) { Observe(batch.point_at(raw).t); });
  return Emit(batch);
}

void RateMonitorOperator::CloseCurrentWindow() {
  if (window_open_) {
    window_rates_.Add(static_cast<double>(window_count_) /
                      (window_duration_ * area_));
    window_count_ = 0;
    window_open_ = false;
  }
}

// ---------------------------------------------------------------------------
// SinkOperator

Result<std::unique_ptr<SinkOperator>> SinkOperator::Make(std::string name,
                                                         std::size_t capacity) {
  if (capacity < 1) {
    return Status::InvalidArgument("sink capacity must be >= 1");
  }
  return std::unique_ptr<SinkOperator>(
      new SinkOperator(std::move(name), capacity, nullptr));
}

Result<std::unique_ptr<SinkOperator>> SinkOperator::MakeBatched(
    std::string name, BatchCallback callback) {
  if (!callback) {
    return Status::InvalidArgument("batched sink requires a callback");
  }
  return std::unique_ptr<SinkOperator>(
      new SinkOperator(std::move(name), 1, std::move(callback)));
}

void SinkOperator::Store(const Tuple& tuple) {
  if (tuples_.size() >= capacity_) {
    // Evict the oldest half in one move to amortise the erase cost.
    tuples_.erase(tuples_.begin(),
                  tuples_.begin() + static_cast<std::ptrdiff_t>(capacity_ / 2 + 1));
  }
  tuples_.push_back(tuple);
}

Status SinkOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  if (batch_callback_) {
    // One delivery per batch — the consumer (shard outbox) copies the
    // active rows out under a single lock acquisition.
    batch_callback_(batch);
    return Status::OK();
  }
  // Copying out of the active slots is allowed; restructuring the
  // caller's (possibly port-shared) storage is not.
  batch.ForEach([this](const Tuple& tuple) { Store(tuple); });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PassThroughOperator

Result<std::unique_ptr<PassThroughOperator>> PassThroughOperator::Make(
    std::string name) {
  return std::unique_ptr<PassThroughOperator>(
      new PassThroughOperator(std::move(name)));
}

Status PassThroughOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  return Emit(batch);
}

}  // namespace ops
}  // namespace craqr
