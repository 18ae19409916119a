// Composable attack × fault × environment scenarios over the simulated
// vehicles, scored end-to-end through the pipeline's ScoringCore.
//
// A Scenario names one cell of the evaluation grid the ROADMAP asks for:
// which vehicle preset transmits, which attack (if any) is injected into
// the traffic, which analog fault profile corrupts the tap's captures,
// and which electrical environment the vehicle sits in.  ScenarioRunner
// turns a cell into metrics deterministically: every random stream is
// seeded by hashing the runner seed with the scenario's identity, so a
// given (seed, scenario) pair produces bit-identical metrics no matter
// how many scenarios ran before it.  That property is what makes the
// scenario regression harness (tests/test_scenarios.cpp) a golden test
// rather than a flaky one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/model.hpp"
#include "faults/fault.hpp"
#include "pipeline/counters.hpp"
#include "sim/attack.hpp"
#include "sim/vehicle.hpp"
#include "stats/confusion.hpp"

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

namespace sim {

/// Attack layer of a scenario.
enum class AttackKind {
  kNone,            // clean traffic (false-positive test)
  kHijack,          // trained ECU claims another cluster's SA
  kForeign,         // untrained device imitates the most-similar target
  kMasquerade,      // Sagong voltage-corruption overcurrent attack
  kImitationSweep,  // duplicate-signature sweep toward the target
};

const char* to_string(AttackKind kind);

/// One cell of the evaluation grid.
struct Scenario {
  std::string preset = "a";  // "a" | "b" (sim::vehicle_a / vehicle_b)
  AttackKind attack = AttackKind::kNone;
  faults::FaultProfile faults;  // default: clean
  analog::Environment env;
  /// Environment label used in the scenario name (and thus the stream
  /// seeds and the model cache key) — keep it in sync with `env`.
  std::string env_name = "reference";
  vprofile::DistanceMetric metric = vprofile::DistanceMetric::kMahalanobis;
  double margin = 4.0;
  double attack_prob = 0.2;  // hijack rewrite probability
  double overdrive = 0.4;    // masquerade overcurrent strength
  /// false scores with a margin-only DetectionConfig — the exact pre-gating
  /// detector.  Deliberately not part of name(): the generated stream is
  /// identical either way, so flipping the switch isolates what gating
  /// changed (nothing, on clean captures).
  bool quality_gating = true;
  std::size_t train_count = 1200;
  std::size_t test_count = 400;

  /// Canonical identity: preset/metric/attack/faults/env.  Scenarios with
  /// equal names draw identical random streams from a given runner seed.
  std::string name() const;
};

/// Everything a scenario run measures.
struct ScenarioMetrics {
  /// Confusion over confidently classified messages only (degraded and
  /// extraction-failed captures are accounted separately — a monitor
  /// escalates those on their own channel rather than guessing).
  stats::BinaryConfusion confusion;
  std::size_t extraction_failures = 0;
  std::size_t degraded = 0;
  /// Per-fault injection counts from the fault layer.
  faults::FaultStats fault_stats;
  /// Scoring telemetry (per-verdict and per-extract-error counters).
  pipeline::CountersSnapshot pipeline_counters;

  /// Order-independent digest of every count above (not the timings and
  /// not the queue high-water mark); equal fingerprints <=> identical
  /// detection outcomes.
  std::uint64_t fingerprint() const;
};

/// A scenario's outcome: metrics, or a training failure diagnosis.
struct ScenarioResult {
  ScenarioMetrics metrics;
  std::string error;  // non-empty when the model could not be trained

  bool ok() const { return error.empty(); }
};

/// Vehicle preset for a scenario ("a" or "b"; throws std::invalid_argument
/// otherwise).
VehicleConfig scenario_vehicle(const Scenario& scenario);

/// The runner's FNV-1a seed derivation: hashes a base seed with a purpose
/// string ("stream/<name>", "faults/<name>", "train/<key>") so every
/// stage draws from an independent, order-independent random stream.
/// Exposed so sibling harnesses (sim/adversary.hpp) reuse the exact
/// discipline instead of inventing parallel seeding schemes.
units::Seed64 derive_stream_seed(units::Seed64 seed,
                                 const std::string& purpose);

/// Detection config a deployed monitor would run this vehicle with:
/// the scenario margin plus quality gating matched to the digitizer
/// (rails at the ADC limits, flat-run detection on).  Clean captures
/// never trip the gate, so clean-traffic verdicts are identical to a
/// margin-only config.
vprofile::DetectionConfig scenario_detection_config(
    const VehicleConfig& config, double margin);

/// Runs scenarios deterministically, caching one trained model per
/// (preset, metric, environment, train_count) so grids stay fast.  Not
/// thread-safe; use one runner per thread.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(units::Seed64 seed);
  explicit ScenarioRunner(std::uint64_t seed)
      : ScenarioRunner(units::Seed64{seed}) {}

  /// Never throws for any fault profile or attack: training failures are
  /// reported in the result, detection always yields a verdict.
  ScenarioResult run(const Scenario& scenario);

  /// Attach observability to every subsequent run(): training fits, fault
  /// activations and pipeline stages all report into these sinks.  The
  /// metrics fingerprint() covers is untouched — scenario outcomes stay
  /// bit-identical (tests/test_obs.cpp holds this against the golden
  /// matrix).  Null detaches; sinks must outlive the runner.
  void set_observability(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

  /// The model a scenario's training key resolves to, trained on first use
  /// and cached like run() does (the two share one cache, so a harness
  /// that scores the model through a custom detector stack still trains
  /// exactly once per key).  Null when training failed; `error`, when
  /// non-null, receives the diagnosis.
  std::shared_ptr<const vprofile::Model> trained_model(
      const Scenario& scenario, std::string* error = nullptr);

  units::Seed64 seed() const { return seed_; }

 private:
  struct CachedModel {
    std::shared_ptr<const vprofile::Model> model;
    std::string error;
  };

  const CachedModel& model_for(const Scenario& scenario);

  units::Seed64 seed_;
  std::map<std::string, CachedModel> model_cache_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace sim
