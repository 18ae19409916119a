// Bounded blocking ring queue — the hand-off between capture and the
// detection workers.
//
// A fixed-capacity ring of slots guarded by one mutex and two condition
// variables.  Producers either block when the ring is full (backpressure,
// the default for lossless scoring) or fail fast so the caller can count a
// drop (a live monitor must never stall the bus tap).  close() makes the
// queue drain-then-stop: pushes fail immediately, pops keep succeeding
// until the ring is empty and only then report exhaustion.  That property
// is what the pipeline's shutdown test relies on: no frame accepted before
// close() is ever lost, and none is delivered twice.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pipeline {

template <typename T>
class RingQueue {
 public:
  /// Throws std::invalid_argument on zero capacity.
  explicit RingQueue(std::size_t capacity) : slots_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("RingQueue: capacity must be > 0");
    }
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  /// Blocks while the queue is full.  Returns false iff the queue was
  /// closed (the value is discarded).
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return count_ < slots_.size() || closed_; });
    if (closed_) return false;
    emplace_locked(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push.  Returns false when the queue is full or closed;
  /// the caller decides whether that is a drop.
  bool try_push(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ == slots_.size()) return false;
      emplace_locked(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty.  Returns std::nullopt only once the
  /// queue is closed *and* fully drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    if (count_ == 0) return std::nullopt;  // closed and drained
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --count_;
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Batched pop: blocks for the first value like pop(), then drains up to
  /// `max` values total without further waiting — the hand-off for batched
  /// scoring (one wait buys a whole SoA batch when the producer is ahead,
  /// and degrades to per-item behavior when it is not).  Clears and fills
  /// `*out`; returns the number popped, 0 only once closed and drained.
  /// Sanctioned hot-path boundary: the one place a worker may block.
  // vprofile-lint: cold
  std::size_t pop_some(std::vector<T>* out, std::size_t max) {
    out->clear();
    if (max == 0) max = 1;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    if (count_ == 0) return 0;  // closed and drained
    const std::size_t take = std::min(max, count_);
    for (std::size_t k = 0; k < take; ++k) {
      out->push_back(std::move(slots_[head_]));
      head_ = (head_ + 1) % slots_.size();
    }
    count_ -= take;
    lock.unlock();
    // Several slots may have freed at once; wake every blocked producer.
    not_full_.notify_all();
    return take;
  }

  /// Stops intake.  Queued values remain poppable; blocked producers and
  /// (once drained) blocked consumers wake up.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Largest occupancy ever observed right after a push — the pipeline's
  /// queue-depth gauge.
  std::size_t high_watermark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_watermark_;
  }

 private:
  void emplace_locked(T value) {
    slots_[(head_ + count_) % slots_.size()] = std::move(value);
    ++count_;
    if (count_ > high_watermark_) high_watermark_ = count_;
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t high_watermark_ = 0;
  bool closed_ = false;
};

}  // namespace pipeline
