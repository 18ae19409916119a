// Scenario regression harness (see scenario_harness.hpp).
//
// Three layers of guarantees, weakest to strongest:
//  1. Never-crash: every grid cell — and deliberately nastier fault
//     profiles than any canned one — produces a result, never a throw.
//  2. Golden bounds: each cell's confusion metrics stay inside committed
//     tolerances, and every capture is accounted for exactly once.
//  3. Bit-exact determinism: re-running the grid from the same seed, in
//     reverse order, reproduces identical metric fingerprints.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/simd_dispatch.hpp"
#include "scenario_harness.hpp"

namespace {

using harness::ScenarioCase;
using sim::AttackKind;
using sim::Scenario;
using sim::ScenarioResult;
using sim::ScenarioRunner;

TEST(ScenarioMatrix, HasAtLeastTwentyFourCells) {
  EXPECT_GE(harness::default_scenario_matrix().size(), 24u);
}

TEST(ScenarioMatrix, CellNamesAreUnique) {
  std::vector<std::string> names;
  for (const ScenarioCase& c : harness::default_scenario_matrix()) {
    names.push_back(c.scenario.name() + "/" +
                    std::to_string(c.scenario.overdrive) + "/" +
                    std::to_string(c.scenario.margin));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate scenario cells would silently halve coverage";
}

// Gating must be invisible on clean captures: the same generated stream,
// scored with the gating config and with the margin-only (pre-gating)
// config, must produce identical confusion matrices.
TEST(ScenarioMatrix, CleanTrafficMatchesPreGatingDetector) {
  for (const std::string preset : {"a", "b"}) {
    for (AttackKind attack :
         {AttackKind::kNone, AttackKind::kHijack, AttackKind::kForeign}) {
      Scenario s;
      s.preset = preset;
      s.attack = attack;
      if (preset == "b") s.train_count = 3000;
      SCOPED_TRACE(s.name());

      ScenarioRunner gated_runner(harness::kMatrixSeed);
      Scenario gated = s;
      gated.quality_gating = true;
      const ScenarioResult with_gate = gated_runner.run(gated);

      ScenarioRunner legacy_runner(harness::kMatrixSeed);
      Scenario legacy = s;
      legacy.quality_gating = false;
      const ScenarioResult without_gate = legacy_runner.run(legacy);

      ASSERT_TRUE(with_gate.ok()) << with_gate.error;
      ASSERT_TRUE(without_gate.ok()) << without_gate.error;
      EXPECT_EQ(with_gate.metrics.degraded, 0u);
      EXPECT_EQ(without_gate.metrics.degraded, 0u);
      EXPECT_EQ(with_gate.metrics.confusion.true_positives(),
                without_gate.metrics.confusion.true_positives());
      EXPECT_EQ(with_gate.metrics.confusion.true_negatives(),
                without_gate.metrics.confusion.true_negatives());
      EXPECT_EQ(with_gate.metrics.confusion.false_positives(),
                without_gate.metrics.confusion.false_positives());
      EXPECT_EQ(with_gate.metrics.confusion.false_negatives(),
                without_gate.metrics.confusion.false_negatives());
      EXPECT_EQ(harness::fingerprint(with_gate.metrics),
                harness::fingerprint(without_gate.metrics));
    }
  }
}

TEST(ScenarioMatrix, MeetsGoldenBounds) {
  ScenarioRunner runner(harness::kMatrixSeed);
  for (const ScenarioCase& c : harness::default_scenario_matrix()) {
    SCOPED_TRACE(c.scenario.name());
    ScenarioResult result;
    ASSERT_NO_THROW(result = runner.run(c.scenario));
    ASSERT_TRUE(result.ok()) << result.error;
    const sim::ScenarioMetrics& m = result.metrics;
    SCOPED_TRACE(harness::describe(m));

    // Every submitted capture lands in exactly one bucket.
    EXPECT_EQ(m.confusion.total() + m.degraded + m.extraction_failures,
              c.scenario.test_count);
    // The harness's own accounting agrees with pipeline telemetry.
    EXPECT_EQ(m.degraded, m.pipeline_counters.degraded());
    EXPECT_EQ(m.extraction_failures, m.pipeline_counters.extract_failures());
    EXPECT_EQ(m.fault_stats.total_traces, c.scenario.test_count);

    if (c.min_recall >= 0.0) {
      EXPECT_GE(m.confusion.recall(), c.min_recall);
    }
    if (c.max_fpr <= 1.0) {
      const double negatives = static_cast<double>(
          m.confusion.false_positives() + m.confusion.true_negatives());
      if (negatives > 0.0) {
        EXPECT_LE(static_cast<double>(m.confusion.false_positives()) /
                      negatives,
                  c.max_fpr);
      }
    }
    EXPECT_GE(m.degraded, c.min_degraded);
    EXPECT_LE(m.degraded, c.max_degraded);
    if (c.expect_faults) {
      EXPECT_GT(m.fault_stats.faulted_traces, 0u);
    } else {
      EXPECT_EQ(m.fault_stats.faulted_traces, 0u);
    }
  }
}

TEST(ScenarioMatrix, DeterministicAcrossRunnersAndExecutionOrder) {
  std::vector<ScenarioCase> forward = harness::default_scenario_matrix();
  std::vector<ScenarioCase> reverse = forward;
  std::reverse(reverse.begin(), reverse.end());

  // Two independent runners (fresh model caches), opposite visit orders.
  ScenarioRunner first(harness::kMatrixSeed);
  ScenarioRunner second(harness::kMatrixSeed);
  std::map<std::string, std::uint64_t> first_prints;
  for (const ScenarioCase& c : forward) {
    ScenarioResult r = first.run(c.scenario);
    ASSERT_TRUE(r.ok()) << c.scenario.name() << ": " << r.error;
    first_prints[c.scenario.name() + "/" +
                 std::to_string(c.scenario.overdrive) + "/" +
                 std::to_string(c.scenario.margin)] =
        harness::fingerprint(r.metrics);
  }
  for (const ScenarioCase& c : reverse) {
    ScenarioResult r = second.run(c.scenario);
    ASSERT_TRUE(r.ok()) << c.scenario.name() << ": " << r.error;
    const std::string key = c.scenario.name() + "/" +
                            std::to_string(c.scenario.overdrive) + "/" +
                            std::to_string(c.scenario.margin);
    EXPECT_EQ(harness::fingerprint(r.metrics), first_prints.at(key))
        << c.scenario.name();
  }
}

// The golden matrix, scored once with dispatch pinned to the scalar
// kernels and once with the runtime-dispatched backend (AVX2 on capable
// hosts): every cell must produce an identical metric fingerprint.  This
// is the end-to-end closure of the kernel-level bit-identity contract in
// tests/test_simd_differential.cpp — if any SIMD lane ever rounded
// differently, a verdict would drift and a fingerprint would split.
TEST(ScenarioMatrix, FingerprintsIdenticalUnderBothDispatchPaths) {
  if (!linalg::simd::cpu_has_avx2()) {
    GTEST_SKIP() << "no AVX2: both dispatch paths resolve to scalar, the "
                    "comparison would be vacuous";
  }
  struct OverrideGuard {
    ~OverrideGuard() { linalg::simd::set_force_scalar_override(-1); }
  } guard;

  linalg::simd::set_force_scalar_override(1);
  ScenarioRunner forced(harness::kMatrixSeed);
  std::map<std::string, std::uint64_t> scalar_prints;
  for (const ScenarioCase& c : harness::default_scenario_matrix()) {
    ScenarioResult r = forced.run(c.scenario);
    ASSERT_TRUE(r.ok()) << c.scenario.name() << ": " << r.error;
    scalar_prints[c.scenario.name() + "/" +
                  std::to_string(c.scenario.overdrive) + "/" +
                  std::to_string(c.scenario.margin)] =
        harness::fingerprint(r.metrics);
  }

  linalg::simd::set_force_scalar_override(0);
  ScenarioRunner dispatched(harness::kMatrixSeed);
  for (const ScenarioCase& c : harness::default_scenario_matrix()) {
    ScenarioResult r = dispatched.run(c.scenario);
    ASSERT_TRUE(r.ok()) << c.scenario.name() << ": " << r.error;
    const std::string key = c.scenario.name() + "/" +
                            std::to_string(c.scenario.overdrive) + "/" +
                            std::to_string(c.scenario.margin);
    EXPECT_EQ(harness::fingerprint(r.metrics), scalar_prints.at(key))
        << c.scenario.name() << ": scalar and AVX2 dispatch disagree";
  }
}

TEST(ScenarioMatrix, DifferentSeedsDiverge) {
  Scenario s;
  s.attack = AttackKind::kHijack;
  s.faults = *faults::profile_by_name("emi-storm");
  ScenarioRunner a(harness::kMatrixSeed);
  ScenarioRunner b(harness::kMatrixSeed + 1);
  const ScenarioResult ra = a.run(s);
  const ScenarioResult rb = b.run(s);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NE(harness::fingerprint(ra.metrics),
            harness::fingerprint(rb.metrics));
}

// Nastier than any canned profile: every fault at probability 1 with
// extreme parameters.  The pipeline must still account for every capture
// and never crash; most verdicts should be degraded or extraction
// failures, not confident classifications.
TEST(ScenarioMatrix, ExtremeFaultsNeverCrash) {
  faults::FaultProfile torture;
  torture.name = "torture";
  torture.clipping = faults::ClippingFault{1.0, 0.45, true};
  torture.dropout = faults::DropoutFault{1.0, 64, 512};
  torture.dc_shift = faults::DcShiftFault{1.0, -20000.0, 20000.0};
  torture.emi_burst = faults::EmiBurstFault{1.0, 12000.0, 64, 1024};
  torture.clock_drift = faults::ClockDriftFault{1.0, 80000.0};
  torture.truncation = faults::TruncationFault{1.0, 0.05};

  for (AttackKind attack : {AttackKind::kNone, AttackKind::kHijack,
                            AttackKind::kMasquerade}) {
    Scenario s;
    s.attack = attack;
    s.faults = torture;
    s.test_count = 200;
    SCOPED_TRACE(s.name());
    ScenarioRunner runner(harness::kMatrixSeed);
    ScenarioResult r;
    ASSERT_NO_THROW(r = runner.run(s));
    ASSERT_TRUE(r.ok()) << r.error;
    const sim::ScenarioMetrics& m = r.metrics;
    SCOPED_TRACE(harness::describe(m));
    EXPECT_EQ(m.confusion.total() + m.degraded + m.extraction_failures,
              s.test_count);
    EXPECT_EQ(m.fault_stats.faulted_traces, s.test_count);
    // With every capture mangled this badly, confident classification of
    // the full stream would itself be a bug.
    EXPECT_GT(m.degraded + m.extraction_failures, 0u);
  }
}

}  // namespace
