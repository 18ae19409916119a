#include "scenario_harness.hpp"

#include <sstream>

#include "analog/environment.hpp"
#include "core/fnv1a.hpp"

namespace harness {
namespace {

using faults::FaultProfile;
using sim::AttackKind;
using sim::Scenario;

// The matrix operates the detector at margin 12 (Mahalanobis): the probe
// sweep over seeds showed clean-traffic FPR collapsing from ~12% at
// margin 4 to <=0.3% at 12 while hijack/foreign/masquerade recall stays
// 1.0 — only the imitation sweep's near-perfect-duplicate tail evades,
// which the paper accepts for any voltage fingerprint.
constexpr double kMahalanobisMargin = 12.0;
// Euclidean distances live on a codes scale, ~3 orders larger.
constexpr double kEuclideanMargin = 40.0;

Scenario base(const std::string& preset, AttackKind attack,
              FaultProfile faults) {
  Scenario s;
  s.preset = preset;
  s.attack = attack;
  s.faults = std::move(faults);
  s.margin = kMahalanobisMargin;
  if (preset == "b") {
    // Vehicle B's ten ECUs sit closer together in profile space; it needs
    // more training captures per cluster for stable covariance estimates.
    s.train_count = 3000;
  }
  return s;
}

Scenario with_env(Scenario s, const analog::Environment& env,
                  const std::string& env_name) {
  s.env = env;
  s.env_name = env_name;
  return s;
}

ScenarioCase attacks_caught(Scenario s, double min_recall = 0.98,
                            double max_fpr = 0.02) {
  ScenarioCase c;
  c.scenario = std::move(s);
  c.min_recall = min_recall;
  c.max_fpr = max_fpr;
  c.expect_faults = !c.scenario.faults.empty();
  return c;
}

ScenarioCase clean_traffic(Scenario s, double max_fpr = 0.02) {
  ScenarioCase c;
  c.scenario = std::move(s);
  c.max_fpr = max_fpr;
  c.expect_faults = !c.scenario.faults.empty();
  return c;
}

}  // namespace

std::vector<ScenarioCase> default_scenario_matrix() {
  std::vector<ScenarioCase> matrix;
  const analog::Environment accessory = analog::accessory_mode();
  const analog::Environment engine = analog::engine_running();

  // --- Vehicle A, clean tap: every attack kind against the baseline. ---
  {
    ScenarioCase c = clean_traffic(base("a", AttackKind::kNone,
                                        faults::clean_profile()));
    // No faults, no attacks: nothing may degrade and nothing may fail.
    c.max_degraded = 0;
    matrix.push_back(std::move(c));
  }
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kHijack, faults::clean_profile())));
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kForeign, faults::clean_profile())));
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kMasquerade, faults::clean_profile())));
  {
    // The sweep's early transmissions are the imitator's native signature
    // claiming the target's SA — a cluster mismatch, caught.  Late ones
    // are near-perfect parameter-space duplicates; the paper accepts that
    // those evade a voltage fingerprint, so recall is bounded looser
    // (observed ~0.79 at this margin).
    ScenarioCase c = attacks_caught(
        base("a", AttackKind::kImitationSweep, faults::clean_profile()),
        /*min_recall=*/0.60, /*max_fpr=*/0.05);
    matrix.push_back(std::move(c));
  }

  // --- Vehicle A, hijack attack through every canned fault profile.
  // Bounds encode graceful degradation, calibrated per profile:
  //  * saturated-tap turns ~3/4 of captures into degraded verdicts, and
  //    the surviving quarter still classifies accurately;
  //  * flaky-connector's DC shifts genuinely displace the waveform, so
  //    its false alarms are real analog damage, bounded rather than
  //    hidden;
  //  * truncation costs extraction failures, never wrong verdicts. ---
  {
    ScenarioCase c = attacks_caught(
        base("a", AttackKind::kHijack, faults::saturated_tap()),
        /*min_recall=*/0.90, /*max_fpr=*/0.10);
    c.min_degraded = 200;
    matrix.push_back(std::move(c));
  }
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kHijack, faults::flaky_connector()),
      /*min_recall=*/0.90, /*max_fpr=*/0.65));
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kHijack, faults::emi_storm()),
      /*min_recall=*/0.95, /*max_fpr=*/0.15));
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kHijack, faults::drifting_clock()),
      /*min_recall=*/0.90, /*max_fpr=*/0.25));
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kHijack, faults::truncating_tap()),
      /*min_recall=*/0.90, /*max_fpr=*/0.10));
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kHijack, faults::harsh_environment()),
      /*min_recall=*/0.90, /*max_fpr=*/0.50));

  // --- Vehicle A, clean traffic through faulty taps: the fault layer
  // must not masquerade as an attack wave beyond each profile's
  // calibrated false-alarm ceiling (unclassifiable captures land in
  // `degraded`, not in the confusion matrix). ---
  {
    ScenarioCase c = clean_traffic(
        base("a", AttackKind::kNone, faults::saturated_tap()),
        /*max_fpr=*/0.10);
    c.min_degraded = 200;
    matrix.push_back(std::move(c));
  }
  matrix.push_back(clean_traffic(
      base("a", AttackKind::kNone, faults::flaky_connector()),
      /*max_fpr=*/0.65));
  matrix.push_back(clean_traffic(
      base("a", AttackKind::kNone, faults::emi_storm()),
      /*max_fpr=*/0.15));
  matrix.push_back(clean_traffic(
      base("a", AttackKind::kNone, faults::drifting_clock()),
      /*max_fpr=*/0.25));

  // --- Vehicle A, masquerade under hostile analog conditions. ---
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kMasquerade, faults::emi_storm()),
      /*min_recall=*/0.95, /*max_fpr=*/0.15));
  {
    ScenarioCase c = attacks_caught(
        base("a", AttackKind::kMasquerade, faults::saturated_tap()),
        /*min_recall=*/0.90, /*max_fpr=*/0.10);
    c.min_degraded = 200;
    matrix.push_back(std::move(c));
  }
  {
    // Overcurrent strong enough to push the victim's superimposed level
    // into the digitizer rail: the quality gate must turn those captures
    // into degraded verdicts rather than confident guesses (observed: all
    // ~83 corrupted frames degrade at overdrive 0.8, none at 0.4).
    ScenarioCase c;
    c.scenario = base("a", AttackKind::kMasquerade, faults::clean_profile());
    c.scenario.overdrive = 0.8;
    c.min_degraded = 50;
    c.max_fpr = 0.02;
    matrix.push_back(std::move(c));
  }
  matrix.push_back(attacks_caught(
      base("a", AttackKind::kImitationSweep, faults::flaky_connector()),
      /*min_recall=*/0.60, /*max_fpr=*/0.65));

  // --- Vehicle A across electrical environments (trained in-env). ---
  matrix.push_back(clean_traffic(with_env(
      base("a", AttackKind::kNone, faults::clean_profile()), accessory,
      "accessory")));
  matrix.push_back(clean_traffic(with_env(
      base("a", AttackKind::kNone, faults::clean_profile()), engine,
      "engine-running")));
  matrix.push_back(attacks_caught(with_env(
      base("a", AttackKind::kHijack, faults::clean_profile()), accessory,
      "accessory")));
  matrix.push_back(attacks_caught(with_env(
      base("a", AttackKind::kHijack, faults::clean_profile()), engine,
      "engine-running")));
  matrix.push_back(attacks_caught(
      with_env(base("a", AttackKind::kHijack, faults::emi_storm()), engine,
               "engine-running"),
      /*min_recall=*/0.95, /*max_fpr=*/0.20));

  // --- Vehicle A, Euclidean metric (paper compares both distances). ---
  {
    ScenarioCase c = attacks_caught(
        base("a", AttackKind::kHijack, faults::clean_profile()),
        /*min_recall=*/0.98, /*max_fpr=*/0.03);
    c.scenario.metric = vprofile::DistanceMetric::kEuclidean;
    c.scenario.margin = kEuclideanMargin;
    matrix.push_back(std::move(c));
  }

  // --- Vehicle B: ten close-profile ECUs, 12-bit / 10 MS/s digitizer. ---
  matrix.push_back(clean_traffic(
      base("b", AttackKind::kNone, faults::clean_profile())));
  matrix.push_back(attacks_caught(
      base("b", AttackKind::kHijack, faults::clean_profile())));
  matrix.push_back(attacks_caught(
      base("b", AttackKind::kForeign, faults::clean_profile())));
  matrix.push_back(attacks_caught(
      base("b", AttackKind::kHijack, faults::emi_storm()),
      /*min_recall=*/0.90, /*max_fpr=*/0.35));
  matrix.push_back(clean_traffic(with_env(
      base("b", AttackKind::kNone, faults::clean_profile()), accessory,
      "accessory")));
  return matrix;
}

std::uint64_t fingerprint(const sim::ScenarioMetrics& m) {
  using vprofile::fnv1a_u64;
  std::uint64_t h = vprofile::kFnv1aOffset;
  h = fnv1a_u64(h, m.confusion.true_positives());
  h = fnv1a_u64(h, m.confusion.true_negatives());
  h = fnv1a_u64(h, m.confusion.false_positives());
  h = fnv1a_u64(h, m.confusion.false_negatives());
  h = fnv1a_u64(h, m.extraction_failures);
  h = fnv1a_u64(h, m.degraded);
  for (std::uint64_t a : m.fault_stats.applied) h = fnv1a_u64(h, a);
  h = fnv1a_u64(h, m.fault_stats.faulted_traces);
  h = fnv1a_u64(h, m.fault_stats.total_traces);
  for (std::uint64_t e : m.pipeline_counters.extract_errors) {
    h = fnv1a_u64(h, e);
  }
  for (std::uint64_t v : m.pipeline_counters.verdicts) h = fnv1a_u64(h, v);
  h = fnv1a_u64(h, m.pipeline_counters.worker_errors);
  return h;
}

std::string describe(const sim::ScenarioMetrics& m) {
  std::ostringstream os;
  os << "tp=" << m.confusion.true_positives()
     << " tn=" << m.confusion.true_negatives()
     << " fp=" << m.confusion.false_positives()
     << " fn=" << m.confusion.false_negatives()
     << " recall=" << m.confusion.recall()
     << " degraded=" << m.degraded
     << " extract_fail=" << m.extraction_failures << " faults=[";
  for (std::size_t i = 0; i < faults::kNumFaultKinds; ++i) {
    if (i) os << ' ';
    os << faults::to_string(static_cast<faults::FaultKind>(i)) << '='
       << m.fault_stats.applied[i];
  }
  os << "] faulted_traces=" << m.fault_stats.faulted_traces << '/'
     << m.fault_stats.total_traces
     << " fingerprint=" << fingerprint(m);
  return os.str();
}

}  // namespace harness
