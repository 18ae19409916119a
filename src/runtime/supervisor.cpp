#include "runtime/supervisor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "pipeline/counters.hpp"

namespace runtime {
namespace {

using vprofile::fnv1a_u64;

/// One code per way a frame can end, for the fingerprint.
std::uint64_t outcome_code(const pipeline::FrameResult& r) {
  if (r.dropped) return 1;
  if (r.worker_error) return 2;
  if (r.extract_error != vprofile::ExtractError::kNone) {
    return 16 + static_cast<std::uint64_t>(r.extract_error);
  }
  return 32 + static_cast<std::uint64_t>(r.detection->verdict);
}

void add_snapshot(pipeline::CountersSnapshot& into,
                  const pipeline::CountersSnapshot& from) {
  into.submitted += from.submitted;
  into.completed += from.completed;
  into.dropped += from.dropped;
  into.worker_errors += from.worker_errors;
  into.extract_ns += from.extract_ns;
  into.detect_ns += from.detect_ns;
  if (from.queue_high_watermark > into.queue_high_watermark) {
    into.queue_high_watermark = from.queue_high_watermark;
  }
  for (std::size_t i = 0; i < into.extract_errors.size(); ++i) {
    into.extract_errors[i] += from.extract_errors[i];
  }
  for (std::size_t i = 0; i < into.verdicts.size(); ++i) {
    into.verdicts[i] += from.verdicts[i];
  }
}

void add_gate_stats(vprofile::GatedUpdateStats& into,
                    const vprofile::GatedUpdateStats& from) {
  into.accepted += from.accepted;
  into.rejected_verdict += from.rejected_verdict;
  into.rejected_margin += from.rejected_margin;
  into.refused_by_updater += from.refused_by_updater;
}

/// Verdict-code -> name table for the flight recorder (obs/ renders
/// producer enums through tables so it never depends on the detector).
const char* const* verdict_name_table() {
  static const std::array<const char*, vprofile::kNumVerdicts> table = [] {
    std::array<const char*, vprofile::kNumVerdicts> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = vprofile::to_string(static_cast<vprofile::Verdict>(i));
    }
    return t;
  }();
  return table.data();
}

const char* const* extract_error_name_table() {
  static const std::array<const char*, pipeline::kNumExtractErrors> table =
      [] {
        std::array<const char*, pipeline::kNumExtractErrors> t{};
        for (std::size_t i = 0; i < t.size(); ++i) {
          t[i] = vprofile::to_string(static_cast<vprofile::ExtractError>(i));
        }
        return t;
      }();
  return table.data();
}

/// Shortest round-trippable rendering; non-finite values become quoted
/// strings ("inf"/"-inf"/"nan") so bundle context stays valid JSON — the
/// same convention the flight recorder uses for evidence features.
void append_json_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"nan\"";
    return;
  }
  if (std::isinf(v)) {
    out += std::signbit(v) ? "\"-inf\"" : "\"inf\"";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_json_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// Flattens one handled result into the recorder's fixed-size row.
obs::EvidenceRecord make_evidence(const pipeline::FrameResult& r,
                                  std::uint64_t tick_ns,
                                  std::uint32_t generation) {
  obs::EvidenceRecord rec;
  rec.seq = r.seq;
  rec.tick_ns = tick_ns;
  rec.sa = r.sa;
  rec.dropped = r.dropped;
  rec.worker_error = r.worker_error;
  rec.extract_error = static_cast<std::uint8_t>(r.extract_error);
  rec.model_generation = generation;
  if (r.detection.has_value()) {
    const vprofile::Detection& det = *r.detection;
    rec.verdict = static_cast<std::uint8_t>(det.verdict);
    rec.min_distance = det.min_distance;
    rec.confidence = det.confidence;
    if (det.expected_cluster.has_value()) {
      rec.expected_cluster = static_cast<std::int32_t>(*det.expected_cluster);
    }
    if (det.predicted_cluster.has_value()) {
      rec.predicted_cluster = static_cast<std::int32_t>(*det.predicted_cluster);
    }
  }
  if (r.edge_set.has_value()) {
    const std::size_t dim =
        std::min(r.edge_set->samples.size(), obs::kMaxEvidenceDim);
    rec.dim = static_cast<std::uint16_t>(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      rec.features[i] = r.edge_set->samples[i];
    }
  }
  return rec;
}

}  // namespace

Supervisor::Supervisor(vprofile::Model model, SupervisorConfig config,
                       ResultSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      model_(std::make_shared<const vprofile::Model>(std::move(model))),
      watchdog_(config_.watchdog),
      sentinel_(model_->clusters().size(), config_.drift) {
  if (!config_.lockstep && !config_.fault_plan.stalls.empty()) {
    throw std::invalid_argument(
        "Supervisor: worker stall plans are modelled in lockstep only");
  }
  if (config_.online_update) config_.pipeline.keep_edge_set = true;
  if (config_.validation_holdout_stride == 0) {
    config_.validation_holdout_stride = 1;
  }
  if (!config_.checkpoint_dir.empty()) {
    store_.emplace(config_.checkpoint_dir);
  }
  if (obs::MetricsRegistry* reg = config_.pipeline.metrics) {
    watchdog_.bind_metrics(reg);
    instruments_.decimated = reg->counter("runtime_frames_decimated_total");
    instruments_.promotions = reg->counter("runtime_promotions_total");
    instruments_.rollbacks = reg->counter("runtime_rollbacks_total");
    instruments_.checkpoints = reg->counter("runtime_checkpoints_total");
    instruments_.drift_alarms = reg->counter("runtime_drift_alarms_total");
    // vprofile-lint: allow(metric-name) — enum-valued state, unitless
    instruments_.health = reg->gauge("runtime_health_state");
    // vprofile-lint: allow(metric-name) — boolean gauge, unitless
    instruments_.governor_active = reg->gauge("runtime_governor_active");
  }
  if (config_.flight_recorder) {
    obs::FlightRecorderConfig rc = config_.recorder;
    rc.verdict_names = verdict_name_table();
    rc.num_verdicts = vprofile::kNumVerdicts;
    rc.extract_error_names = extract_error_name_table();
    rc.num_extract_errors = pipeline::kNumExtractErrors;
    if (rc.metrics == nullptr) rc.metrics = config_.pipeline.metrics;
    if (rc.tracer == nullptr) rc.tracer = config_.pipeline.tracer;
    rc.context_json = [this] { return context_json(); };
    recorder_ = std::make_unique<obs::FlightRecorder>(std::move(rc));
  }
  emit_ = [this](pipeline::FrameResult&& r) { handle(std::move(r)); };
  create_scorer_locked();
}

Supervisor::~Supervisor() { finish(); }

void Supervisor::create_scorer_locked() {
  if (config_.lockstep) {
    core_ = std::make_unique<pipeline::ScoringCore>(*model_, config_.pipeline);
    scratch_ = std::make_unique<pipeline::ScoringCore::Scratch>(*core_);
    return;
  }
  pipe_ = std::make_unique<pipeline::DetectionPipeline>(
      *model_, config_.pipeline, [this](pipeline::FrameResult&& r) {
        // Sink consumers see the supervisor's global frame numbering,
        // stable across pipeline restarts.
        r.seq += base_seq_.load(std::memory_order_relaxed);
        handle(std::move(r));
      });
}

void Supervisor::handle(pipeline::FrameResult&& result) {
  const std::uint64_t global = result.seq;
  bool drift_alarm = false;
  std::uint32_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = static_cast<std::uint32_t>(stats_.promotions);
    ++stats_.frames_handled;
    fingerprint_ = fnv1a_u64(fingerprint_, global);
    fingerprint_ = fnv1a_u64(fingerprint_, outcome_code(result));
    if (result.worker_error) ++stats_.worker_errors;
    if (result.ok()) {
      const vprofile::Detection& det = *result.detection;
      fingerprint_ = fnv1a_u64(
          fingerprint_, std::bit_cast<std::uint64_t>(det.min_distance));
      if (det.expected_cluster && !det.is_degraded()) {
        if (sentinel_.observe(*det.expected_cluster, det.min_distance)) {
          drift_alarm = true;
          ++stats_.drift_alarms;
          if (instruments_.drift_alarms != nullptr) {
            instruments_.drift_alarms->add();
          }
          if (config_.online_update && health_ == HealthState::kHealthy) {
            health_ = HealthState::kDrifting;
            candidate_ = std::make_unique<vprofile::Model>(*model_);
            gated_ = std::make_unique<vprofile::GatedUpdater>(
                candidate_.get(), config_.gate);
            ++stats_.candidates_started;
          }
        }
      }
      if (config_.online_update && det.verdict == vprofile::Verdict::kOk &&
          result.edge_set) {
        // Holdout split: window frames and update frames are disjoint, so
        // validation exercises data the candidate has never absorbed.
        const bool held_out =
            holdout_tick_++ % config_.validation_holdout_stride == 0;
        if (held_out) {
          validation_window_.push_back(*result.edge_set);
          while (validation_window_.size() > config_.validation_window) {
            validation_window_.pop_front();
          }
        } else if (gated_ != nullptr) {
          gated_->consider(*result.edge_set, det);
          if (gated_->stats().accepted >= config_.retrain_batch) {
            validate_candidate_locked();
          }
        }
      }
    }
    if (config_.checkpoint_every != 0 && store_.has_value() &&
        stats_.frames_handled % config_.checkpoint_every == 0) {
      checkpoint_due_ = true;
    }
  }
  if (recorder_ != nullptr) {
    // Outside mu_: record() is lock-free but an armed trigger may emit a
    // bundle here, and bundle context re-enters the supervisor's locked
    // accessors.  handle() is the serialized result path (the pipeline's
    // collector, or the caller's thread in lockstep), so the recorder's
    // single-writer contract holds.
    recorder_->record(make_evidence(
        result, last_poll_ns_.load(std::memory_order_relaxed), generation));
    if (result.detection.has_value() && result.detection->is_anomaly()) {
      const bool degraded = result.detection->is_degraded();
      recorder_->request_trigger(
          degraded ? obs::IncidentCause::kDegradedVerdict
                   : obs::IncidentCause::kAnomalyVerdict,
          global,
          verdict_name_table()[static_cast<std::size_t>(
              result.detection->verdict)]);
    }
    if (drift_alarm) {
      recorder_->request_trigger(obs::IncidentCause::kDriftAlarm, global,
                                 "drift sentinel alarm");
    }
  }
  if (sink_) sink_(result);
}

void Supervisor::validate_candidate_locked() {
  // The candidate earned a promotion attempt; it must re-classify the
  // held-out benign window without regressions.  The live model called
  // every one of these frames kOk when it stored them, and the holdout
  // split guarantees the candidate never absorbed any of them, so an
  // anomaly here is the candidate's doing.
  std::size_t regressions = 0;
  const vprofile::DetectionConfig& dc = config_.pipeline.detection;
  for (const vprofile::EdgeSet& es : validation_window_) {
    if (vprofile::detect(*candidate_, es, dc).is_anomaly()) ++regressions;
  }
  if (regressions <= config_.validation_max_regressions) {
    pending_promotion_ = std::move(*candidate_);
    health_ = HealthState::kRetraining;  // promotion lands at the next
                                         // control point (a drain boundary)
  } else {
    ++stats_.rollbacks;
    if (instruments_.rollbacks != nullptr) instruments_.rollbacks->add();
    health_ = HealthState::kDegraded;
    if (recorder_ != nullptr) {
      // Arming is one CAS — safe under mu_ (never blocks or re-enters).
      recorder_->request_trigger(obs::IncidentCause::kRetrainRollback,
                                 stats_.frames_handled,
                                 "candidate validation regressions");
    }
  }
  add_gate_stats(gate_accum_, gated_->stats());
  candidate_.reset();
  gated_.reset();
}

std::optional<std::uint64_t> Supervisor::submit(dsp::Trace trace) {
  apply_control();
  std::uint64_t global = 0;
  bool score_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return std::nullopt;
    ++stats_.frames_offered;
    if (config_.governor_high_water != 0) {
      const std::size_t depth =
          pipe_ != nullptr ? pipe_->queue_depth() : backlog_.size();
      if (!governor_active_ && depth >= config_.governor_high_water) {
        governor_active_ = true;
        if (recorder_ != nullptr) {
          recorder_->request_trigger(obs::IncidentCause::kOverloadShed,
                                     stats_.frames_offered,
                                     "governor high-water crossed");
        }
      } else if (governor_active_ && depth <= config_.governor_low_water) {
        governor_active_ = false;
      }
      if (instruments_.governor_active != nullptr) {
        instruments_.governor_active->set(governor_active_ ? 1 : 0);
      }
      if (governor_active_) {
        const std::uint64_t tick = decimation_counter_++;
        if (config_.decimation_stride == 0 ||
            tick % config_.decimation_stride != 0) {
          ++stats_.frames_decimated;
          if (instruments_.decimated != nullptr) instruments_.decimated->add();
          return std::nullopt;
        }
      }
    }
    // Every forwarded frame claims exactly one global index and produces
    // exactly one ordered result (scored, worker_error, or dropped).
    global = stats_.frames_submitted++;
    if (config_.lockstep) score_now = intake_locked(global, trace);
  }
  if (score_now) {
    jobs_.clear();
    jobs_.push_back(pipeline::Job{global, std::move(trace), 0});
    core_->score_jobs(*scratch_, jobs_, emit_);
  } else if (!config_.lockstep) {
    // Enqueue outside the lock: blocking-mode backpressure must not hold
    // up the result handler.
    pipe_->submit(std::move(trace));
  }
  apply_control();
  return global;
}

bool Supervisor::intake_locked(std::uint64_t global, dsp::Trace& trace) {
  if (!parked_.has_value()) {
    for (const faults::WorkerStallPlan& stall : config_.fault_plan.stalls) {
      if (stall.frame_index == global) parked_ = global;
    }
    core_->note_submitted(0);
    return !parked_.has_value();
  }
  // Behind a parked frame: queue in order, or — the backlog being full —
  // refuse it as the ring refuses a non-blocking push.  Only the caller's
  // own poll() can drain the backlog, so blocking here could never end.
  const bool room = backlog_drops_ == 0 &&
                    backlog_.size() < config_.pipeline.queue_capacity;
  if (room) {
    backlog_.push_back(pipeline::Job{global, std::move(trace), 0});
    backlog_high_ = std::max(backlog_high_, backlog_.size());
  } else {
    ++backlog_drops_;
  }
  core_->note_submitted(backlog_.size(), !room);
  return false;
}

void Supervisor::release_parked() {
  if (!parked_.has_value()) return;
  std::uint64_t seq = *std::exchange(parked_, std::nullopt);
  std::vector<pipeline::Job> backlog = std::exchange(backlog_, {});
  core_->fail_job(seq, emit_);
  if (!backlog.empty()) core_->score_jobs(*scratch_, backlog, emit_);
  for (seq += backlog.size(); backlog_drops_ > 0; --backlog_drops_) {
    pipeline::FrameResult dropped;
    dropped.seq = ++seq;
    dropped.dropped = true;
    handle(std::move(dropped));
  }
  core_->note_depth(0);
}

void Supervisor::poll(std::uint64_t now_ns) {
  last_poll_ns_.store(now_ns, std::memory_order_relaxed);
  apply_control();
  Watchdog::Action action = Watchdog::Action::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    const pipeline::CountersSnapshot live = live_counters_locked();
    const std::uint64_t completed =
        accumulated_.completed.value() + live.completed.value();
    const bool pending =
        live.submitted.value() > live.completed.value() + live.dropped.value();
    action = watchdog_.poll(now_ns, completed, pending);
    if (action != Watchdog::Action::kNone) ++stats_.stalls_detected;
    if (action == Watchdog::Action::kGiveUp) {
      health_ = HealthState::kDegraded;
    }
  }
  if (action == Watchdog::Action::kRestart ||
      action == Watchdog::Action::kGiveUp) {
    // Either way the wedged stage must be released and the pipeline made
    // whole; give-up additionally pins health at degraded.
    restart_pipeline(std::nullopt);
    watchdog_.notify_restarted(now_ns);
    std::uint64_t handled = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.restarts;
      handled = stats_.frames_handled;
    }
    if (recorder_ != nullptr) {
      recorder_->request_trigger(obs::IncidentCause::kWatchdogRestart, handled,
                                 action == Watchdog::Action::kGiveUp
                                     ? "watchdog gave up"
                                     : "watchdog restart");
    }
  }
}

void Supervisor::trigger_incident(const char* detail) {
  if (recorder_ == nullptr) return;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = stats_.frames_handled;
  }
  recorder_->request_trigger(obs::IncidentCause::kOperator, seq,
                             detail != nullptr ? detail : "operator request");
}

void Supervisor::accumulate_counters_locked() {
  add_snapshot(accumulated_, live_counters_locked());
  base_seq_.store(accumulated_.submitted.value(), std::memory_order_relaxed);
}

pipeline::CountersSnapshot Supervisor::live_counters_locked() const {
  return pipe_ != nullptr ? pipe_->counters() : core_->counters(backlog_high_);
}

void Supervisor::restart_pipeline(std::optional<vprofile::Model> new_model) {
  // Drain: every accepted frame is handled before this returns, so the
  // swap below is a clean generation cut.
  if (pipe_ != nullptr) {
    pipe_->finish();
  } else {
    release_parked();
  }
  std::lock_guard<std::mutex> lock(mu_);
  accumulate_counters_locked();
  if (new_model.has_value()) {
    model_ = std::make_shared<const vprofile::Model>(std::move(*new_model));
    sentinel_.reset_all();
    validation_window_.clear();
    if (health_ != HealthState::kDegraded) health_ = HealthState::kHealthy;
  }
  pipe_.reset();
  create_scorer_locked();
}

void Supervisor::apply_control() {
  std::optional<vprofile::Model> promote;
  bool checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_promotion_.has_value()) {
      promote = std::move(pending_promotion_);
      pending_promotion_.reset();
    }
    if (checkpoint_due_) {
      checkpoint = true;
      checkpoint_due_ = false;
    }
  }
  if (promote.has_value()) {
    restart_pipeline(std::move(promote));
    checkpoint = true;  // a promoted model is immediately made durable
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.promotions;
    }
    if (instruments_.promotions != nullptr) instruments_.promotions->add();
  }
  if (checkpoint && store_.has_value()) {
    std::string error;
    if (store_->commit(*model_, &error)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.checkpoints_committed;
      if (instruments_.checkpoints != nullptr) instruments_.checkpoints->add();
    }
  }
  if (instruments_.health != nullptr) {
    instruments_.health->set(static_cast<std::int64_t>(health()));
  }
}

void Supervisor::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
  }
  apply_control();
  if (pipe_ != nullptr) {
    pipe_->finish();
  } else {
    release_parked();
  }
  std::optional<vprofile::Model> promote;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    accumulate_counters_locked();
    // A promotion decided by the very last frames still lands: the drain
    // is complete, so the swap is safe without recreating the pipeline.
    if (pending_promotion_.has_value()) {
      promote = std::move(pending_promotion_);
      pending_promotion_.reset();
    }
  }
  if (promote.has_value()) {
    model_ = std::make_shared<const vprofile::Model>(std::move(*promote));
    if (instruments_.promotions != nullptr) instruments_.promotions->add();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.promotions;
    if (health_ != HealthState::kDegraded) health_ = HealthState::kHealthy;
  }
  if (store_.has_value()) {
    std::string error;
    if (store_->commit(*model_, &error)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.checkpoints_committed;
      if (instruments_.checkpoints != nullptr) instruments_.checkpoints->add();
    }
  }
  // After the drain: no more records arrive, so an armed/open incident is
  // emitted now with whatever post-window it collected.  mu_ is not held
  // (the bundle context callback takes it).
  if (recorder_ != nullptr) recorder_->flush();
}

std::string Supervisor::context_json() const {
  // Deterministic fields only: wall-time totals (extract_ns/detect_ns)
  // and the queue high-water mark vary run to run, and bundles must stay
  // byte-stable under lockstep replay.
  const pipeline::CountersSnapshot counters = pipeline_counters();
  SupervisorStats s;
  HealthState health_now;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    s.gate = gate_accum_;
    if (gated_ != nullptr) add_gate_stats(s.gate, gated_->stats());
    health_now = health_;
  }
  const vprofile::DetectionConfig& dc = config_.pipeline.detection;
  std::string out = "{\"detection\":{\"margin\":";
  append_json_double(out, dc.margin);
  out += ",\"saturation_code\":";
  append_json_double(out, dc.saturation_code);
  out += ",\"dead_code\":";
  append_json_double(out, dc.dead_code);
  out += ",\"degraded_fraction\":";
  append_json_double(out, dc.degraded_fraction);
  out += ",\"flat_run_min\":";
  append_json_u64(out, dc.flat_run_min);
  out += "},\"counters\":{\"submitted\":";
  append_json_u64(out, counters.submitted.value());
  out += ",\"completed\":";
  append_json_u64(out, counters.completed.value());
  out += ",\"dropped\":";
  append_json_u64(out, counters.dropped.value());
  out += ",\"worker_errors\":";
  append_json_u64(out, counters.worker_errors);
  out += ",\"extract_errors\":[";
  for (std::size_t i = 0; i < counters.extract_errors.size(); ++i) {
    if (i != 0) out += ',';
    append_json_u64(out, counters.extract_errors[i]);
  }
  out += "],\"verdicts\":[";
  for (std::size_t i = 0; i < counters.verdicts.size(); ++i) {
    if (i != 0) out += ',';
    append_json_u64(out, counters.verdicts[i]);
  }
  out += "]},\"supervisor\":{\"health\":\"";
  out += to_string(health_now);
  out += "\",\"frames_offered\":";
  append_json_u64(out, s.frames_offered);
  out += ",\"frames_submitted\":";
  append_json_u64(out, s.frames_submitted);
  out += ",\"frames_decimated\":";
  append_json_u64(out, s.frames_decimated);
  out += ",\"frames_handled\":";
  append_json_u64(out, s.frames_handled);
  out += ",\"restarts\":";
  append_json_u64(out, s.restarts);
  out += ",\"stalls_detected\":";
  append_json_u64(out, s.stalls_detected);
  out += ",\"drift_alarms\":";
  append_json_u64(out, s.drift_alarms);
  out += ",\"candidates_started\":";
  append_json_u64(out, s.candidates_started);
  out += ",\"promotions\":";
  append_json_u64(out, s.promotions);
  out += ",\"rollbacks\":";
  append_json_u64(out, s.rollbacks);
  out += ",\"checkpoints_committed\":";
  append_json_u64(out, s.checkpoints_committed);
  out += ",\"gate\":{\"accepted\":";
  append_json_u64(out, s.gate.accepted);
  out += ",\"rejected_verdict\":";
  append_json_u64(out, s.gate.rejected_verdict);
  out += ",\"rejected_margin\":";
  append_json_u64(out, s.gate.rejected_margin);
  out += ",\"refused_by_updater\":";
  append_json_u64(out, s.gate.refused_by_updater);
  out += "}}}";
  return out;
}

HealthState Supervisor::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

SupervisorStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SupervisorStats s = stats_;
  s.gate = gate_accum_;
  if (gated_ != nullptr) add_gate_stats(s.gate, gated_->stats());
  return s;
}

pipeline::CountersSnapshot Supervisor::pipeline_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  pipeline::CountersSnapshot snap = accumulated_;
  if (!finished_) add_snapshot(snap, live_counters_locked());
  return snap;
}

std::uint64_t Supervisor::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = fnv1a_u64(fingerprint_, stats_.frames_decimated);
  h = fnv1a_u64(h, stats_.promotions);
  h = fnv1a_u64(h, stats_.rollbacks);
  return h;
}

}  // namespace runtime
