// Re-orders results completed out of order back into capture order.
//
// Workers finish whenever they finish; verdict consumers (logging, the
// confusion matrix, a downstream fusion IDS) need the stream in the order
// the frames hit the bus.  The collector buffers results keyed by sequence
// number and invokes the sink for every contiguous run starting at the
// next expected sequence.  The sink runs under the collector's lock, which
// is exactly what makes emission totally ordered — sinks should therefore
// be cheap (append to a vector, update counters); anything expensive
// belongs in the worker stage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

namespace pipeline {

template <typename T>
class OrderedCollector {
 public:
  using Sink = std::function<void(T&&)>;

  explicit OrderedCollector(Sink sink) : sink_(std::move(sink)) {}

  /// Hands over the result for `seq`.  Sequences must be dense (every seq
  /// in [0, N) submitted exactly once) or the stream stalls at the gap.
  /// Sanctioned hot-path boundary: ordered emission serializes here.
  // vprofile-lint: cold
  void submit(std::uint64_t seq, T value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq == next_) {
      sink_(std::move(value));
      ++next_;
      // Flush everything the arrival unblocked.
      for (auto it = buffer_.begin();
           it != buffer_.end() && it->first == next_;
           it = buffer_.erase(it), ++next_) {
        sink_(std::move(it->second));
      }
    } else {
      buffer_.emplace(seq, std::move(value));
    }
  }

  /// Results parked while waiting for an earlier sequence.
  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, T> buffer_;
  std::uint64_t next_ = 0;
  Sink sink_;
};

}  // namespace pipeline
