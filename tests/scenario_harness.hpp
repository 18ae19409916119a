// Deterministic scenario regression harness.
//
// A ScenarioCase couples one cell of the evaluation grid (sim::Scenario)
// with golden expectations expressed as tolerant bounds: minimum recall,
// maximum false-positive rate, degraded-verdict range, whether the fault
// layer must actually have fired.  Bounds instead of exact counts keep
// the goldens meaningful — they encode "the detector catches masquerade
// even through EMI" rather than a brittle bit pattern — while the
// separate fingerprint test (test_scenarios.cpp) pins bit-exact
// determinism: same seed -> identical metrics, in any execution order.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace harness {

/// Runner seed shared by the whole regression matrix.  Changing it is a
/// deliberate golden-regeneration event, not a knob.
inline constexpr std::uint64_t kMatrixSeed = 0x5eed0cafe;

/// One grid cell plus its golden bounds.
struct ScenarioCase {
  sim::Scenario scenario;

  /// Recall over confidently classified messages must be >= this.
  /// Negative disables the check (e.g. clean traffic has no positives).
  double min_recall = -1.0;
  /// FP / (FP + TN) must be <= this.  > 1 disables the check.
  double max_fpr = 1.1;
  /// Degraded-verdict count must fall in [min_degraded, max_degraded].
  std::size_t min_degraded = 0;
  std::size_t max_degraded = std::numeric_limits<std::size_t>::max();
  /// When true, the fault layer must have injected at least one fault.
  bool expect_faults = false;
};

/// The committed regression matrix: >= 24 cells spanning
/// {vehicle preset} x {attack} x {fault profile} x {environment}.
std::vector<ScenarioCase> default_scenario_matrix();

/// Order-independent digest of every count in `metrics` (not the timings
/// and not the queue high-water mark); equal fingerprints <=> identical
/// detection outcomes.  The matrix goldens are pinned on it.
std::uint64_t fingerprint(const sim::ScenarioMetrics& metrics);

/// Human-readable one-line summary of a scenario's metrics (logged on
/// failure so regressions are diagnosable from CI output alone).
std::string describe(const sim::ScenarioMetrics& metrics);

}  // namespace harness
