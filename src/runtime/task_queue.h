#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

/// \file task_queue.h
/// \brief Bounded blocking MPSC queue feeding a shard's worker thread.
///
/// Producers (the engine thread, benchmark drivers, concurrent control
/// planes) push batch and control tasks; a single worker per shard pops
/// them in FIFO order, so control commands stay ordered relative to the
/// tuple batches around them. The bound applies back-pressure: when a
/// shard falls behind, producers block instead of growing the queue
/// without limit.

namespace craqr {
namespace runtime {

/// \brief Bounded blocking FIFO queue (multi-producer, single-consumer).
template <typename T>
class BoundedTaskQueue {
 public:
  /// Creates a queue holding at most `capacity` items (>= 1 enforced).
  explicit BoundedTaskQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedTaskQueue(const BoundedTaskQueue&) = delete;
  BoundedTaskQueue& operator=(const BoundedTaskQueue&) = delete;

  /// Blocks while the queue is full; returns false when the queue has
  /// been closed (the item is dropped).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// \brief Non-blocking push for credit-based admission: fails fast
  /// instead of applying back-pressure. Returns kAccepted on success,
  /// kFull when the caller should shed, kClosed when the queue is closed
  /// (the item is dropped in both failure cases).
  enum class PushResult { kAccepted, kFull, kClosed };

  PushResult TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return PushResult::kClosed;
    }
    if (items_.size() >= capacity_) {
      return PushResult::kFull;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  /// \brief Bounded-wait push: blocks up to `timeout` for a slot, then
  /// fails with kFull. The middle ground between Push (block forever —
  /// a stalled worker wedges the producer) and TryPush (shed
  /// immediately). Close() while waiting wakes the producer with kClosed.
  template <typename Rep, typename Period>
  PushResult PushFor(T item, std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ready = not_full_.wait_for(lock, timeout, [this] {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) {
      return PushResult::kClosed;
    }
    if (!ready) {
      return PushResult::kFull;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  /// Blocks while the queue is empty; returns std::nullopt once the queue
  /// is closed and fully drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Closes the queue: pending items remain poppable, further pushes fail,
  /// and blocked consumers wake up.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Items currently queued.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Maximum items held before Push blocks.
  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace runtime
}  // namespace craqr
