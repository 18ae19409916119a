#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace e2e {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::string describe_cpus(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(cpus[i]);
  }
  return out;
}

std::string CpuSet::describe() const { return describe_cpus(cpus); }

bool pin_thread_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

bool pin_to_last_cpu(CpuSet* out, std::string* error) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    *error = std::string("sched_getaffinity: ") + std::strerror(errno);
    return false;
  }
  out->allowed.clear();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) out->allowed.push_back(cpu);
  }
  if (out->allowed.empty()) {
    *error = "empty CPU affinity mask";
    return false;
  }
  out->cpus = {out->allowed.back()};
  if (!pin_thread_to(out->cpus)) {
    *error = std::string("sched_setaffinity: ") + std::strerror(errno);
    return false;
  }
  return true;
}

ProcSample sample_proc() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcSample s;
  s.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                1e-6;
  s.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw) +
                   static_cast<std::uint64_t>(usage.ru_nivcsw);
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::size_t threads_now() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + 8, nullptr, 10));
    }
  }
  return 0;
}

namespace {

/// Bucket b >= 128 covers [(64 + sub) << (e - 6), +1 << (e - 6)) for the
/// value's top bit e = 7 + (b - 128) / 64 and sub = (b - 128) % 64.
std::size_t bucket_of(std::uint64_t ns) {
  if (ns < 128) return static_cast<std::size_t>(ns);
  const int e = static_cast<int>(std::bit_width(ns)) - 1;
  const std::uint64_t sub = (ns >> (e - 6)) - 64;
  return 128 + static_cast<std::size_t>(e - 7) * 64 + static_cast<std::size_t>(sub);
}

void bucket_range(std::size_t b, double* low, double* width) {
  if (b < 128) {
    *low = static_cast<double>(b);
    *width = 1.0;
    return;
  }
  const int shift = static_cast<int>((b - 128) / 64) + 1;  // e - 6
  const std::uint64_t sub = (b - 128) % 64;
  *low = static_cast<double>((64 + sub) << shift);
  *width = static_cast<double>(std::uint64_t{1} << shift);
}

}  // namespace

void LatencyHistogram::add(std::uint64_t ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
}

double LatencyHistogram::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  double below = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (below + c >= rank) {
      double low = 0.0, width = 0.0;
      bucket_range(b, &low, &width);
      return (low + width * (rank - below - 0.5) / c) / 1e3;
    }
    below += c;
  }
  return 0.0;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (k >= values.size()) k = values.size() - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double median_of(std::vector<double> values) {
  return percentile(values, 0.5);
}

std::uint64_t fnv_u64(std::uint64_t hash, std::uint64_t value) {
  unsigned char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  for (const unsigned char b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t SpanBuffer::total_ns(const char* layer) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.layer == layer || std::strcmp(s.layer, layer) == 0) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

std::string SpanBuffer::chrome_trace_json(std::size_t limit,
                                          const std::string& label) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  const std::size_t n = std::min(limit, spans_.size());
  std::uint64_t origin = n == 0 ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < n; ++i) origin = std::min(origin, spans_[i].start_ns);
  char buf[512];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"frame\":%llu,\"parent\":\"%s\"}}%s\n",
                  s.layer, s.parent == nullptr ? "root" : "child",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.frame),
                  s.parent == nullptr ? "" : s.parent,
                  i + 1 < n ? "," : "");
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"run\":\"" << label
      << "\",\"spans_recorded\":" << spans_.size()
      << ",\"spans_written\":" << n << "}}\n";
  return out.str();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace e2e
