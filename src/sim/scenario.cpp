#include "sim/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "core/fnv1a.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"

namespace sim {

using vprofile::fnv1a;
using vprofile::fnv1a_u64;

units::Seed64 derive_stream_seed(units::Seed64 seed,
                                 const std::string& purpose) {
  std::uint64_t h = fnv1a_u64(vprofile::kFnv1aOffset, seed.value());
  h = fnv1a(h, purpose.data(), purpose.size());
  // Avoid the degenerate all-zero mt19937 seed.
  return units::Seed64{h == 0 ? 0x9e3779b97f4a7c15ULL : h};
}

const char* to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kHijack: return "hijack";
    case AttackKind::kForeign: return "foreign";
    case AttackKind::kMasquerade: return "masquerade";
    case AttackKind::kImitationSweep: return "imitation-sweep";
  }
  return "unknown";
}

std::string Scenario::name() const {
  return preset + "/" + vprofile::to_string(metric) + "/" +
         to_string(attack) + "/" + faults.name + "/" + env_name;
}

std::uint64_t ScenarioMetrics::fingerprint() const {
  std::uint64_t h = vprofile::kFnv1aOffset;
  h = fnv1a_u64(h, confusion.true_positives());
  h = fnv1a_u64(h, confusion.true_negatives());
  h = fnv1a_u64(h, confusion.false_positives());
  h = fnv1a_u64(h, confusion.false_negatives());
  h = fnv1a_u64(h, extraction_failures);
  h = fnv1a_u64(h, degraded);
  for (std::uint64_t a : fault_stats.applied) h = fnv1a_u64(h, a);
  h = fnv1a_u64(h, fault_stats.faulted_traces);
  h = fnv1a_u64(h, fault_stats.total_traces);
  for (std::uint64_t e : pipeline_counters.extract_errors) h = fnv1a_u64(h, e);
  for (std::uint64_t v : pipeline_counters.verdicts) h = fnv1a_u64(h, v);
  h = fnv1a_u64(h, pipeline_counters.worker_errors);
  return h;
}

VehicleConfig scenario_vehicle(const Scenario& scenario) {
  if (scenario.preset == "a") return vehicle_a();
  if (scenario.preset == "b") return vehicle_b();
  throw std::invalid_argument("scenario_vehicle: unknown preset '" +
                              scenario.preset + "'");
}

vprofile::DetectionConfig scenario_detection_config(
    const VehicleConfig& config, double margin) {
  vprofile::DetectionConfig dc;
  dc.margin = margin;
  // Rails just inside the digitizer limits: clean captures peak around
  // 90% of full scale (see bench_fig2_5_4_2_profiles), so 98% only trips
  // on genuine saturation; codes at/below zero only appear when samples
  // were dropped or the offset collapsed.
  dc.saturation_code = 0.98 * static_cast<double>(config.adc.max_code());
  dc.dead_code = 0.5;
  dc.degraded_fraction = 0.25;
  dc.flat_run_min = 6;
  return dc;
}

ScenarioRunner::ScenarioRunner(units::Seed64 seed) : seed_(seed) {}

void ScenarioRunner::set_observability(obs::MetricsRegistry* metrics,
                                       obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
}

const ScenarioRunner::CachedModel& ScenarioRunner::model_for(
    const Scenario& scenario) {
  const std::string key = scenario.preset + "/" +
                          vprofile::to_string(scenario.metric) + "/" +
                          scenario.env_name + "/" +
                          std::to_string(scenario.train_count);
  auto it = model_cache_.find(key);
  if (it != model_cache_.end()) return it->second;

  CachedModel cached;
  Vehicle vehicle(scenario_vehicle(scenario),
                  derive_stream_seed(seed_, "train/" + key));
  vprofile::TrainingConfig tc;
  tc.metric = scenario.metric;
  tc.metrics = metrics_;
  tc.tracer = tracer_;
  vprofile::TrainOutcome outcome = train_on_clean_traffic(
      vehicle, scenario.train_count, scenario.env, std::move(tc));
  if (outcome.ok()) {
    cached.model =
        std::make_shared<const vprofile::Model>(std::move(*outcome.model));
  } else {
    cached.error = outcome.error;
  }
  return model_cache_.emplace(key, std::move(cached)).first->second;
}

std::shared_ptr<const vprofile::Model> ScenarioRunner::trained_model(
    const Scenario& scenario, std::string* error) {
  const CachedModel& cached = model_for(scenario);
  if (error != nullptr) *error = cached.error;
  return cached.model;
}

ScenarioResult ScenarioRunner::run(const Scenario& scenario) {
  ScenarioResult result;
  const CachedModel& cached = model_for(scenario);
  if (!cached.model) {
    result.error = cached.error;
    return result;
  }
  const vprofile::Model& model = *cached.model;

  const VehicleConfig config = scenario_vehicle(scenario);
  Vehicle vehicle(config,
                  derive_stream_seed(seed_, "stream/" + scenario.name()));

  std::vector<LabeledCapture> stream;
  switch (scenario.attack) {
    case AttackKind::kNone:
      stream = make_normal_stream(vehicle, scenario.test_count, scenario.env);
      break;
    case AttackKind::kHijack:
      stream = make_hijack_stream(vehicle, scenario.test_count,
                                  scenario.attack_prob, scenario.env);
      break;
    case AttackKind::kForeign: {
      const auto [imitator, target] = Experiment::most_similar_pair(model);
      stream = make_foreign_stream(vehicle, imitator, target,
                                   scenario.test_count, scenario.env);
      break;
    }
    case AttackKind::kMasquerade: {
      const auto [attacker, victim] = Experiment::most_similar_pair(model);
      stream = make_masquerade_stream(vehicle, attacker, victim,
                                      scenario.test_count, scenario.overdrive,
                                      scenario.env);
      break;
    }
    case AttackKind::kImitationSweep: {
      const auto [imitator, target] = Experiment::most_similar_pair(model);
      stream = make_imitation_sweep_stream(vehicle, imitator, target,
                                           scenario.test_count, scenario.env);
      break;
    }
  }

  // The fault layer corrupts what the tap records, never what the bus
  // carried: labels stay attached to the original transmissions.
  faults::FaultInjector injector(
      scenario.faults, static_cast<double>(config.adc.max_code()),
      derive_stream_seed(seed_, "faults/" + scenario.name()));
  injector.bind_metrics(metrics_);
  {
    obs::TraceSpan fault_span(tracer_, "scenario.inject_faults");
    for (LabeledCapture& lc : stream) {
      lc.capture.codes = injector.apply(lc.capture.codes);
    }
  }

  // Score on this thread through the pipeline's ScoringCore, one
  // batch_size chunk at a time, so the scenario grid regression-covers
  // the serving step (batched extraction + scoring + accounting), not
  // just detect().  Verdicts do not depend on the chunking.
  pipeline::PipelineConfig pc;
  pc.metrics = metrics_;
  pc.tracer = tracer_;
  if (scenario.quality_gating) {
    pc.detection = scenario_detection_config(config, scenario.margin);
  } else {
    pc.detection.margin = scenario.margin;
  }
  pipeline::ScoringCore core(model, pc);
  pipeline::ScoringCore::Scratch scratch(core);
  ScenarioMetrics& m = result.metrics;
  const pipeline::ScoringCore::Emit tally = [&](pipeline::FrameResult&& r) {
    if (!r.ok()) {
      ++m.extraction_failures;
    } else if (r.detection->is_degraded()) {
      ++m.degraded;
    } else {
      m.confusion.add(stream[r.seq].is_attack, r.detection->is_anomaly());
    }
  };
  std::vector<pipeline::Job> jobs;
  jobs.reserve(pc.batch_size);
  for (std::size_t i = 0; i < stream.size();) {
    jobs.clear();
    for (; i < stream.size() && jobs.size() < pc.batch_size; ++i) {
      core.note_submitted(0);
      jobs.push_back(pipeline::Job{i, std::move(stream[i].capture.codes), 0});
    }
    core.score_jobs(scratch, jobs, tally);
  }
  m.pipeline_counters = core.counters(0);
  m.fault_stats = injector.stats();
  return result;
}

}  // namespace sim
