// The three workloads of the end-to-end verdict benchmark and the
// isolation arms of its traced run.  See README.md in this directory for
// why each workload exists, what it bypasses, and how the per-layer
// ledger is derived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its ledger JSON and Chrome trace.
  std::string out_dir;
  /// Self-test hook: corrupt one precomputed oracle entry so the
  /// correctness gate must trip.
  bool perturb_oracle = false;
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// Runs one workload; `cpus` is the pinned set, for the reports and for
/// the worker sweep of the traced run.  Throws std::runtime_error on an
/// unknown workload and on set-up failures.
RunReport run_workload(const Options& options, const CpuSet& cpus);

}  // namespace e2e
