// Measurement plumbing for the end-to-end verdict benchmark: the clock,
// in-process CPU pinning, process counters, percentiles, the span buffer
// of the traced run (with its Chrome trace_event writer) and the one-line
// JSON result.  Nothing here knows about vProfile; see workloads.hpp.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Steady-clock nanoseconds since the first call in this process.
std::uint64_t now_ns();

/// The CPUs this process pinned itself to, and the mask it was allowed.
struct CpuSet {
  std::vector<int> cpus;
  std::vector<int> allowed;
  std::string describe() const;  // "3"
};

/// Pins the calling thread — and so every thread it starts afterwards —
/// to the last CPU of the allowed mask (sched_setaffinity; the first CPUs
/// tend to take more interrupts).  Returns false with a diagnostic when
/// the mask cannot be read or set.
bool pin_to_last_cpu(CpuSet* out, std::string* error);

/// Re-pins the calling thread (and the threads it starts afterwards) to
/// `cpus`; false when sched_setaffinity refuses.
bool pin_thread_to(const std::vector<int>& cpus);

/// "0,1" for {0, 1}.
std::string describe_cpus(const std::vector<int>& cpus);

/// getrusage(RUSAGE_SELF): CPU seconds of every thread, context switches.
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
};
ProcSample sample_proc();

/// ru_maxrss of this process, in MB (2^20 bytes).
double peak_rss_mb();

/// Returns freed heap to the OS and restarts the peak-RSS high-water mark
/// (/proc/self/clear_refs "5"), so peak_rss_mb() covers what follows.
/// False when the mark could not be reset.
bool reset_peak_rss();

/// "Threads:" from /proc/self/status (0 when unreadable).
std::size_t threads_now();

/// Verdict latencies in constant memory however many frames a run scores,
/// so the benchmark's own buffers never move peak_rss_mb: exact below
/// 128 ns, then 64 buckets per octave (under 1.6% wide).
class LatencyHistogram {
 public:
  void add(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile, q in [0, 1], interpolated inside its bucket;
  /// microseconds, 0 when empty.
  double percentile_us(double q) const;

 private:
  static constexpr std::size_t kLinear = 128;
  static constexpr std::size_t kPerOctave = 64;
  static constexpr std::size_t kBuckets = kLinear + (64 - 7) * kPerOctave;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Percentile q in [0, 1] by nearest rank; reorders `values`.  0 on empty.
double percentile(std::vector<double>& values, double q);

/// Median of a copy.
double median_of(std::vector<double> values);

/// FNV-1a over the eight bytes of `value` in host order — the fold the
/// supervisor and the fleet use for their fingerprints.
std::uint64_t fnv_u64(std::uint64_t hash, std::uint64_t value);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// One timed call into a layer, recorded from outside the layer.
struct Span {
  std::uint64_t frame = 0;
  const char* layer = nullptr;   // string literal
  const char* parent = nullptr;  // enclosing layer, or nullptr at the root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Pre-sized, append-only span store for the traced run.  record() never
/// allocates; once full it refuses further spans and the traced loop
/// stops early rather than perturb the run with a reallocation.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  bool full() const { return spans_.size() == spans_.capacity(); }
  void record(std::uint64_t frame, const char* layer, const char* parent,
              std::uint64_t start_ns, std::uint64_t end_ns) {
    if (!full()) spans_.push_back({frame, layer, parent, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans of one layer, in nanoseconds.
  std::uint64_t total_ns(const char* layer) const;

  /// Chrome trace_event JSON ("X" complete events, microseconds) of the
  /// first `limit` spans, with frame id and parent layer in args.
  std::string chrome_trace_json(std::size_t limit,
                                const std::string& label) const;

 private:
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// JSON number with every digit a double carries ("null" for NaN/inf).
std::string json_number(double value);

/// Writes `text` to `path`; false on failure.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace e2e
