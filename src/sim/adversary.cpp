#include "sim/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/fnv1a.hpp"
#include "faults/fault.hpp"
#include "linalg/fixed_point.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"

namespace sim {
namespace {

using vprofile::fnv1a;
using vprofile::fnv1a_u64;

std::uint64_t hash_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a_u64(hash, bits);
}

constexpr std::size_t kPlainIdx =
    static_cast<std::size_t>(DefenseArm::kPlain);
constexpr std::size_t kGatedIdx =
    static_cast<std::size_t>(DefenseArm::kGated);
constexpr std::size_t kFixedIdx =
    static_cast<std::size_t>(DefenseArm::kFixedPoint);
constexpr std::size_t kSentinelIdx =
    static_cast<std::size_t>(DefenseArm::kSentinel);
constexpr std::size_t kSupervisedIdx =
    static_cast<std::size_t>(DefenseArm::kSupervised);

/// Cumulative ramp state for the drift-masquerade family (one campaign =
/// one state, threaded through the frame loop).
struct RampState {
  double shift = 0.0;
  std::uint64_t ticks = 0;
};

/// Applies one family's transform at `point` to one base frame.  The
/// foreign-backed families corrupt only the frames that are attacks in
/// the base stream; the drift masquerade walks *every* frame by the
/// cumulative ramp and relabels by harm (`is_attack` becomes true once
/// the shift reaches the harm threshold).  Voltage-magnitude dimensions
/// arrive as fractions of full scale and are rescaled to codes here.
/// Parameter-deterministic: no RNG.
dsp::Trace transform_frame(AttackFamily family, const AttackPoint& point,
                           const dsp::Trace& in, double max_code,
                           double harm_shift_frac, RampState& ramp,
                           bool* is_attack) {
  switch (family) {
    case AttackFamily::kOvercurrent: {
      if (!*is_attack) return in;
      faults::OvercurrentFault f;
      f.gain = point[0];
      f.dominant_fraction = point[1];
      f.offset = point[2] * max_code;
      return faults::apply_overcurrent(in, f, max_code);
    }
    case AttackFamily::kCorruptionBurst: {
      if (!*is_attack) return in;
      faults::CorruptionBurstFault f;
      f.amplitude = point[0] * max_code;
      f.period_samples = point[1];
      f.phase = point[2];
      f.duty = point[3];
      return faults::apply_corruption_burst(in, f, max_code);
    }
    case AttackFamily::kDriftMasquerade: {
      ++ramp.ticks;
      if (faults::duty_cycle_fires(ramp.ticks, point[2])) {
        const double limit = point[1] * max_code;
        ramp.shift =
            std::clamp(ramp.shift + point[0] * max_code, -limit, limit);
      }
      *is_attack = ramp.shift >= harm_shift_frac * max_code;
      return faults::apply_slow_drift(in, ramp.shift, max_code);
    }
  }
  return in;
}

/// Folds counts into rate and margin.  A stream-level alarm catches the
/// whole campaign, so it forces the rate to 1; a point with no attack
/// frames did no harm, which is a win for the defender, not an evasion.
void finalize(ArmOutcome& arm, double evasion_floor) {
  if (arm.stream_alarm) {
    arm.detection_rate = 1.0;
  } else if (arm.attack_frames == 0) {
    arm.detection_rate = 1.0;
  } else {
    arm.detection_rate = static_cast<double>(arm.detected) /
                         static_cast<double>(arm.attack_frames);
  }
  arm.margin = arm.detection_rate - evasion_floor;
}

}  // namespace

const char* to_string(AttackFamily family) {
  switch (family) {
    case AttackFamily::kOvercurrent: return "overcurrent";
    case AttackFamily::kCorruptionBurst: return "corruption-burst";
    case AttackFamily::kDriftMasquerade: return "drift-masquerade";
  }
  return "unknown";
}

const char* to_string(DefenseArm arm) {
  switch (arm) {
    case DefenseArm::kPlain: return "plain";
    case DefenseArm::kGated: return "gated";
    case DefenseArm::kFixedPoint: return "fixed-point";
    case DefenseArm::kSentinel: return "sentinel";
    case DefenseArm::kSupervised: return "supervised";
  }
  return "unknown";
}

std::uint64_t FrontierReport::fingerprint() const {
  std::uint64_t h = vprofile::kFnv1aOffset;
  h = fnv1a_u64(h, seed);
  h = fnv1a_u64(h, families.size());
  for (const FamilyFrontier& f : families) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(f.family));
    h = fnv1a_u64(h, f.evaluations);
    h = fnv1a_u64(h, f.generations);
    h = fnv1a_u64(h, f.closing_defense.has_value()
                        ? static_cast<std::uint64_t>(*f.closing_defense)
                        : 0xffffffffULL);
    for (double p : f.weakest.params) h = hash_double(h, p);
    for (const ArmOutcome& a : f.weakest.arms) {
      h = hash_double(h, a.detection_rate);
      h = hash_double(h, a.margin);
      h = fnv1a_u64(h, a.attack_frames);
      h = fnv1a_u64(h, a.detected);
      h = fnv1a_u64(h, a.stream_alarm ? 1 : 0);
      h = fnv1a_u64(h, a.promotions);
      h = fnv1a_u64(h, a.rollbacks);
    }
  }
  return h;
}

std::string FrontierReport::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"vprofile-frontier-v1\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"families\": [";
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    const FamilyFrontier& f = families[fi];
    out += fi == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += std::string("      \"family\": \"") + to_string(f.family) + "\",\n";
    out += "      \"evaluations\": " + std::to_string(f.evaluations) + ",\n";
    out += "      \"generations\": " + std::to_string(f.generations) + ",\n";
    out += "      \"closing_defense\": ";
    if (f.closing_defense.has_value()) {
      out += std::string("\"") + to_string(*f.closing_defense) + "\"";
    } else {
      out += "null";
    }
    out += ",\n";
    out += "      \"weakest\": {\n";
    out += "        \"params\": {";
    const auto specs = AdversarySearch::param_specs(f.family);
    bool first = true;
    for (std::size_t d = 0; d < kNumAttackParams; ++d) {
      if (std::strcmp(specs[d].name, "unused") == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + specs[d].name +
             "\": " + obs::json_double(f.weakest.params[d]);
    }
    out += "},\n";
    out += "        \"arms\": [";
    for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
      const ArmOutcome& arm = f.weakest.arms[a];
      out += a == 0 ? "\n" : ",\n";
      out += std::string("          {\"arm\": \"") +
             to_string(static_cast<DefenseArm>(a)) + "\"";
      out += ", \"detection_rate\": " + obs::json_double(arm.detection_rate);
      out += ", \"margin\": " + obs::json_double(arm.margin);
      out += ", \"attack_frames\": " + std::to_string(arm.attack_frames);
      out += ", \"detected\": " + std::to_string(arm.detected);
      out += std::string(", \"stream_alarm\": ") +
             (arm.stream_alarm ? "true" : "false");
      out += ", \"promotions\": " + std::to_string(arm.promotions);
      out += ", \"rollbacks\": " + std::to_string(arm.rollbacks);
      out += "}";
    }
    out += "\n        ]\n";
    out += "      }\n";
    out += "    }";
  }
  out += "\n  ]\n}\n";
  return out;
}

/// One family's fixed evaluation substrate, synthesized once: the base
/// labeled stream plus the digitizer constants every candidate reuses.
struct AdversarySearch::FamilyWorkload {
  VehicleConfig config;
  vprofile::ExtractionConfig extraction;
  double max_code = 0.0;
  std::vector<LabeledCapture> stream;
  /// (cluster, distance) of every confidently classified frame of the
  /// *uncorrupted* stream — the benign history a deployed monitor has
  /// accumulated before the campaign starts.  Replayed into each
  /// candidate's drift sentinel so Page–Hinkley has a pre-attack
  /// baseline; without it, a fast ramp is simply the stream's normal and
  /// no changepoint exists to detect.
  std::vector<std::pair<std::size_t, double>> benign_observations;
};

AdversarySearch::AdversarySearch(ScenarioRunner& runner,
                                 AdversaryConfig config)
    : runner_(runner), config_(std::move(config)) {}

void AdversarySearch::set_observability(obs::MetricsRegistry* metrics,
                                        obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
}

std::array<ParamSpec, kNumAttackParams> AdversarySearch::param_specs(
    AttackFamily family) {
  switch (family) {
    case AttackFamily::kOvercurrent:
      return {{{"gain", 0.0, 1.5, 4},
               {"dominant_fraction", 0.5, 0.95, 3},
               {"offset_frac", -0.02, 0.02, 3},
               {"unused", 0.0, 0.0, 1}}};
    case AttackFamily::kCorruptionBurst:
      return {{{"amplitude_frac", 0.0, 0.6, 4},
               {"period_samples", 8.0, 512.0, 3},
               {"phase", 0.0, 0.75, 2},
               {"duty", 0.05, 1.0, 3}}};
    case AttackFamily::kDriftMasquerade:
      // The searchable shift band is deliberately tight around the noise
      // floor: the probe that sized it found the Mahalanobis detector
      // flags a DC shift of ~0.2% of full scale, so the whole
      // cat-and-mouse game happens between harm_shift_frac and there.
      return {{{"ramp_rate_frac", 0.00005, 0.0005, 3},
               {"max_shift_frac", 0.0005, 0.003, 6},
               {"duty", 0.1, 1.0, 3},
               {"unused", 0.0, 0.0, 1}}};
  }
  return {};
}

FrontierReport AdversarySearch::run() {
  Scenario base;
  base.preset = config_.preset;
  base.metric = config_.metric;
  base.margin = config_.margin;
  base.train_count = config_.train_count;

  std::string error;
  model_ = runner_.trained_model(base, &error);
  if (!model_) {
    throw std::runtime_error("adversary: model training failed: " + error);
  }

  if (metrics_ != nullptr) {
    evals_counter_ = metrics_->counter("frontier_attacks_evaluated_total");
    // Milli-margin of the weakest cell found so far: a signed level, not
    // a count and not in any physical unit (precedent:
    // runtime_health_state).
    // vprofile-lint: allow(metric-name)
    margin_gauge_ = metrics_->gauge("frontier_margin");
  } else {
    evals_counter_ = nullptr;
    margin_gauge_ = nullptr;
  }

  FrontierReport report;
  report.seed = runner_.seed().value();
  for (AttackFamily family : config_.families) {
    const FamilyWorkload workload = make_workload(family, base);
    report.families.push_back(search_family(family, workload));
  }
  return report;
}

AdversarySearch::FamilyWorkload AdversarySearch::make_workload(
    AttackFamily family, const Scenario& base) {
  FamilyWorkload w;
  w.config = scenario_vehicle(base);
  w.extraction = default_extraction(w.config);
  w.max_code = static_cast<double>(w.config.adc.max_code());

  // Same FNV discipline as ScenarioRunner's streams: the vehicle draw is
  // a pure function of (runner seed, family), independent of evaluation
  // order and of whatever scenarios ran before.
  const std::string purpose =
      std::string("stream/adversary/") + to_string(family);
  Vehicle vehicle(w.config, derive_stream_seed(runner_.seed(), purpose));

  if (family == AttackFamily::kDriftMasquerade) {
    // Benign traffic: the masquerade's harm comes from the ramp itself,
    // so labels are assigned per candidate (shift >= harm_shift_frac).
    w.stream = make_normal_stream(vehicle, config_.stream_count, base.env);
  } else {
    // Foreign-device traffic: the attack frames are genuinely malicious
    // before any shaping, so a zero-amplitude transform cannot fake an
    // evasion — it just reproduces the baseline foreign detection rate.
    const auto [imitator, target] = Experiment::most_similar_pair(*model_);
    w.stream = make_foreign_stream(vehicle, imitator, target,
                                   config_.stream_count, base.env);
  }

  const vprofile::DetectionConfig gated_cfg =
      scenario_detection_config(w.config, config_.margin);
  for (const LabeledCapture& lc : w.stream) {
    const auto es = vprofile::extract_edge_set(lc.capture.codes, w.extraction);
    if (!es.has_value()) continue;
    const vprofile::Detection d = vprofile::detect(*model_, *es, gated_cfg);
    if (!d.is_degraded() && d.predicted_cluster.has_value()) {
      w.benign_observations.emplace_back(*d.predicted_cluster,
                                         d.min_distance);
    }
  }
  return w;
}

FrontierCell AdversarySearch::evaluate(AttackFamily family,
                                       const FamilyWorkload& workload,
                                       const AttackPoint& point) const {
  FrontierCell cell;
  cell.family = family;
  cell.params = point;

  vprofile::DetectionConfig plain_cfg;
  plain_cfg.margin = config_.margin;
  const vprofile::DetectionConfig gated_cfg =
      scenario_detection_config(workload.config, config_.margin);
  const double step = linalg::fixed::choose_feature_step(workload.max_code);

  runtime::DriftSentinel sentinel(model_->clusters().size(), config_.drift);
  // Warm the sentinel on the pre-campaign benign history; only alarms
  // raised *during* the campaign count (a cluster already latched by the
  // baseline replay could never alarm again, so count latches, not
  // observe() returns).
  for (const auto& [cluster, distance] : workload.benign_observations) {
    sentinel.observe(cluster, distance);
  }
  const std::uint64_t baseline_alarms = sentinel.alarms_total();

  auto tally = [](ArmOutcome& arm, bool detected) {
    ++arm.attack_frames;
    if (detected) ++arm.detected;
  };

  RampState ramp;
  for (const LabeledCapture& lc : workload.stream) {
    bool is_attack = lc.is_attack;
    const dsp::Trace trace =
        transform_frame(family, point, lc.capture.codes, workload.max_code,
                        config_.harm_shift_frac, ramp, &is_attack);

    const std::optional<vprofile::EdgeSet> es =
        vprofile::extract_edge_set(trace, workload.extraction);

    bool plain_det = false;  // extraction failure passes silently
    bool gated_det = true;   // extraction failure escalates
    bool fixed_det = true;
    if (es.has_value()) {
      plain_det = vprofile::detect(*model_, *es, plain_cfg).is_anomaly();

      const vprofile::Detection gated =
          vprofile::detect(*model_, *es, gated_cfg);
      gated_det = gated.is_anomaly();

      vprofile::EdgeSet quantized = *es;
      for (double& x : quantized.samples) {
        x = static_cast<double>(linalg::fixed::quantize_feature(x, step)) *
            step;
      }
      fixed_det = vprofile::detect(*model_, quantized, gated_cfg).is_anomaly();

      // The sentinel watches the distance stream of every confidently
      // classified frame — benign and attack alike; that is what lets it
      // see a campaign whose individual frames all pass.
      if (!gated.is_degraded() && gated.predicted_cluster.has_value()) {
        sentinel.observe(*gated.predicted_cluster, gated.min_distance);
      }
    }

    if (is_attack) {
      tally(cell.arms[kPlainIdx], plain_det);
      tally(cell.arms[kGatedIdx], gated_det);
      tally(cell.arms[kFixedIdx], fixed_det);
      tally(cell.arms[kSentinelIdx], gated_det);
    }
  }

  cell.arms[kSentinelIdx].stream_alarm =
      sentinel.alarms_total() > baseline_alarms;
  finalize(cell.arms[kPlainIdx], config_.evasion_floor);
  finalize(cell.arms[kGatedIdx], config_.evasion_floor);
  finalize(cell.arms[kFixedIdx], config_.evasion_floor);
  finalize(cell.arms[kSentinelIdx], config_.evasion_floor);
  // The supervised arm is expensive (a full Supervisor run); it is filled
  // in only at each family's weakest cell by evaluate_supervised().
  return cell;
}

ArmOutcome AdversarySearch::evaluate_supervised(
    AttackFamily family, const FamilyWorkload& workload,
    const AttackPoint& point) const {
  // The deployment sees the benign history first (same warm-up the
  // sentinel arm gets), then the campaign: the supervisor's own drift
  // sentinel needs a pre-attack baseline to have a changepoint to find.
  std::vector<dsp::Trace> traces;
  std::vector<char> labels;
  traces.reserve(2 * workload.stream.size());
  labels.reserve(2 * workload.stream.size());
  for (const LabeledCapture& lc : workload.stream) {
    traces.push_back(lc.capture.codes);
    labels.push_back(0);
  }
  RampState ramp;
  for (const LabeledCapture& lc : workload.stream) {
    bool is_attack = lc.is_attack;
    traces.push_back(transform_frame(family, point, lc.capture.codes,
                                     workload.max_code, config_.harm_shift_frac,
                                     ramp, &is_attack));
    labels.push_back(is_attack ? 1 : 0);
  }

  runtime::SupervisorConfig sc;
  sc.pipeline.detection =
      scenario_detection_config(workload.config, config_.margin);
  sc.drift = config_.drift;
  sc.lockstep = true;  // verdicts a pure function of the input stream
  sc.online_update = true;
  sc.retrain_batch = 48;
  sc.validation_window = 16;

  std::vector<char> detected(traces.size(), 0);
  runtime::Supervisor supervisor(
      vprofile::Model(*model_), sc,
      [&detected](const pipeline::FrameResult& r) {
        if (r.seq < detected.size()) {
          detected[r.seq] = (!r.ok() || r.detection->is_anomaly()) ? 1 : 0;
        }
      });
  for (dsp::Trace& t : traces) supervisor.submit(std::move(t));
  supervisor.finish();

  const runtime::SupervisorStats stats = supervisor.stats();
  ArmOutcome out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 0) continue;
    ++out.attack_frames;
    if (detected[i] != 0) ++out.detected;
  }
  out.promotions = stats.promotions;
  out.rollbacks = stats.rollbacks;
  // A drift alarm or a rollback is the deployment noticing the campaign;
  // a promotion without either is silent poisoning and must NOT count as
  // a detection — it is reported so the frontier table can call it out.
  out.stream_alarm = stats.drift_alarms > 0 || stats.rollbacks > 0;
  finalize(out, config_.evasion_floor);
  return out;
}

std::vector<FrontierCell> AdversarySearch::evaluate_all(
    AttackFamily family, const FamilyWorkload& workload,
    const std::vector<AttackPoint>& pts) {
  std::vector<FrontierCell> cells(pts.size());
  const std::size_t workers = std::clamp<std::size_t>(
      config_.num_workers, 1, pts.empty() ? 1 : pts.size());
  // Worker w owns indices congruent to w: the result vector's content is
  // a pure function of `pts`, never of thread scheduling.
  auto work = [&](std::size_t w) {
    for (std::size_t i = w; i < pts.size(); i += workers) {
      cells[i] = evaluate(family, workload, pts[i]);
      if (evals_counter_ != nullptr) evals_counter_->add();
    }
  };
  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
    for (std::thread& t : threads) t.join();
  }
  return cells;
}

FamilyFrontier AdversarySearch::search_family(AttackFamily family,
                                              const FamilyWorkload& workload) {
  FamilyFrontier frontier;
  frontier.family = family;

  const std::array<ParamSpec, kNumAttackParams> specs = param_specs(family);

  // Coarse sweep: the Cartesian product of every dimension's grid.
  std::vector<AttackPoint> grid;
  std::array<std::size_t, kNumAttackParams> odo{};
  while (true) {
    AttackPoint q{};
    for (std::size_t d = 0; d < kNumAttackParams; ++d) {
      const ParamSpec& s = specs[d];
      q[d] = s.grid > 1 ? s.lo + (s.hi - s.lo) * static_cast<double>(odo[d]) /
                                     static_cast<double>(s.grid - 1)
                        : s.lo;
    }
    grid.push_back(q);
    std::size_t d = 0;
    for (; d < kNumAttackParams; ++d) {
      if (++odo[d] < specs[d].grid) break;
      odo[d] = 0;
    }
    if (d == kNumAttackParams) break;
  }

  std::vector<FrontierCell> cells = evaluate_all(family, workload, grid);
  frontier.evaluations += cells.size();
  std::size_t best = 0;
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (cells[i].plain_margin() < cells[best].plain_margin()) best = i;
  }
  FrontierCell weakest = cells[best];

  // Coordinate-descent hill-climb toward the detector's weakest point:
  // probe +/- step on every searchable dimension, move to any strict
  // improvement (first minimum in candidate order — deterministic), halve
  // the step each generation.
  std::array<double, kNumAttackParams> step{};
  for (std::size_t d = 0; d < kNumAttackParams; ++d) {
    step[d] = specs[d].grid > 1 ? (specs[d].hi - specs[d].lo) /
                                      static_cast<double>(specs[d].grid - 1)
                                : 0.0;
  }
  for (std::size_t gen = 0; gen < config_.generations; ++gen) {
    obs::TraceSpan span(tracer_, "frontier.generation");
    std::vector<AttackPoint> candidates;
    for (std::size_t d = 0; d < kNumAttackParams; ++d) {
      if (step[d] <= 0.0) continue;
      step[d] *= 0.5;
      for (double sign : {-1.0, 1.0}) {
        AttackPoint q = weakest.params;
        q[d] = std::clamp(q[d] + sign * step[d], specs[d].lo, specs[d].hi);
        candidates.push_back(q);
      }
    }
    if (candidates.empty()) break;
    const std::vector<FrontierCell> probes =
        evaluate_all(family, workload, candidates);
    frontier.evaluations += probes.size();
    ++frontier.generations;
    for (const FrontierCell& probe : probes) {
      if (probe.plain_margin() < weakest.plain_margin()) weakest = probe;
    }
    if (margin_gauge_ != nullptr) {
      margin_gauge_->set(static_cast<std::int64_t>(
          std::llround(weakest.plain_margin() * 1000.0)));
    }
  }

  // The full supervised deployment only runs at the frontier cell — it is
  // orders of magnitude more expensive than the other arms.
  weakest.arms[kSupervisedIdx] =
      evaluate_supervised(family, workload, weakest.params);

  frontier.weakest = weakest;
  for (DefenseArm arm : {DefenseArm::kGated, DefenseArm::kFixedPoint,
                         DefenseArm::kSentinel, DefenseArm::kSupervised}) {
    if (frontier.weakest.arm(arm).margin >= 0.0) {
      frontier.closing_defense = arm;
      break;
    }
  }
  return frontier;
}

}  // namespace sim
