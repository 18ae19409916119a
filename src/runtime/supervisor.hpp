// Self-healing supervision around the pipeline's scoring step.
//
// The pipeline scores frames; the supervisor keeps the *monitor* alive
// and the *model* honest across hours of unattended operation:
//
//  * Watchdog — judges liveness from completed-frame progress on an
//    externally supplied clock (poll(now_ns)); a wedged stage is released
//    (its frame becomes one contained worker_error), the scorer is drained
//    and recreated, and restarts back off exponentially up to a budget.
//  * Drift sentinel — Page–Hinkley over per-cluster distance streams;
//    an alarm escalates healthy -> drifting and starts a retrain
//    candidate.
//  * Guarded retraining — gate-accepted (Algorithm 4 + verdict gate)
//    edge sets fold into a *copy* of the live model; when the batch is
//    full the candidate must re-classify a held-back window of recent
//    benign frames without regressions before it is promoted.  Promotion
//    swaps the model at a drain point; regression rolls the candidate
//    back and degrades health instead.
//  * Checkpointing — the live model is committed to a CheckpointStore
//    periodically, at promotion, and at shutdown; load() recovers to
//    last-good when the latest checkpoint is corrupt.
//  * Overload governor — when the queue crosses the high-water mark the
//    supervisor sheds load deterministically (keep 1 of every
//    decimation_stride frames) until it falls below the low-water mark.
//
// Threading contract: one producer thread calls submit()/poll()/finish().
// Free-running, results are handled on DetectionPipeline worker threads
// (serialized, in capture order) and forwarded to the caller's sink.
// Lockstep has no pipeline and no thread: submit() runs the pipeline's
// ScoringCore step and handle() on the caller's thread, so the whole
// supervised run — verdicts, promotions, restarts — is a pure function of
// (model, config, input stream): the soak harness's bit-identical-
// fingerprint guarantee.  A planned stall (lockstep only) parks its frame
// unscored; later frames wait in a FIFO backlog (bounded by
// queue_capacity, and the depth the governor and watchdog see) until a
// watchdog restart or finish() emits the parked frame as a worker_error
// and scores the backlog in order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/fnv1a.hpp"
#include "core/model.hpp"
#include "core/online_update.hpp"
#include "faults/runtime_fault.hpp"
#include "obs/flight_recorder.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/drift_sentinel.hpp"
#include "runtime/watchdog.hpp"

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace runtime {

struct SupervisorConfig {
  /// Base pipeline tuning (lockstep uses the scoring fields and
  /// queue_capacity, which bounds the stall backlog).  keep_edge_set is
  /// forced on while online updates are enabled.
  pipeline::PipelineConfig pipeline;
  WatchdogConfig watchdog;
  DriftConfig drift;
  vprofile::GatedUpdateConfig gate;

  /// Checkpoint directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Commit every N handled frames (0 = only at promotion and finish()).
  std::uint64_t checkpoint_every = 0;

  /// Master switch for the drift -> retrain -> promote loop.
  bool online_update = true;
  /// Gate-accepted edge sets per retrain candidate.
  std::size_t retrain_batch = 128;
  /// Held-back recent benign frames the candidate must re-classify.
  std::size_t validation_window = 64;
  /// 1-in-N holdout split: every N-th gate-eligible benign frame is held
  /// back for the validation window INSTEAD of being offered to the
  /// candidate, keeping validation disjoint from the update stream (a
  /// window the candidate has already absorbed cannot expose it).  0 is
  /// normalized to 1; 1 holds back everything, starving the candidate.
  std::size_t validation_holdout_stride = 4;
  /// Candidate anomalies allowed on that window before rollback.
  std::size_t validation_max_regressions = 0;

  /// Overload governor; high_water 0 disables.  While active, only every
  /// decimation_stride-th offered frame is forwarded.
  std::size_t governor_high_water = 0;
  std::size_t governor_low_water = 0;
  std::size_t decimation_stride = 2;

  /// Deterministic mode: submit() scores the frame inline and hands its
  /// result to the sink before returning (see the threading contract).
  bool lockstep = false;
  /// Injected runtime failures (soak harness).  Stall plans are keyed on
  /// the supervisor's global frame index and need lockstep (the
  /// constructor throws std::invalid_argument otherwise).
  faults::RuntimeFaultPlan fault_plan;

  /// Flight recorder: per-frame evidence ring + freeze-on-trigger
  /// incident bundles (obs/flight_recorder.hpp).  Sizing, incident_dir
  /// and the manifest come from `recorder`; the supervisor itself wires
  /// the verdict/extract-error name tables, the context callback, and —
  /// unless `recorder` already sets them — the pipeline's metrics
  /// registry and tracer.  Triggers: anomalous/degraded verdicts, drift
  /// alarms, watchdog restarts, retrain rollbacks, governor activation,
  /// and trigger_incident().
  bool flight_recorder = false;
  obs::FlightRecorderConfig recorder;
};

struct SupervisorStats {
  std::uint64_t frames_offered = 0;    // submit() calls
  std::uint64_t frames_submitted = 0;  // forwarded to the pipeline
  std::uint64_t frames_decimated = 0;  // shed by the governor
  std::uint64_t frames_handled = 0;    // results seen (ordered)
  std::uint64_t worker_errors = 0;
  std::uint64_t restarts = 0;
  std::uint64_t stalls_detected = 0;
  std::uint64_t drift_alarms = 0;
  std::uint64_t candidates_started = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t checkpoints_committed = 0;
  vprofile::GatedUpdateStats gate;
};

class Supervisor {
 public:
  /// Called (serialized, in capture order) with every handled result.
  /// result.seq carries the supervisor's global frame index (stable
  /// across pipeline restarts), not the pipeline-local sequence.
  using ResultSink = std::function<void(const pipeline::FrameResult&)>;

  Supervisor(vprofile::Model model, SupervisorConfig config,
             ResultSink sink = nullptr);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Offers one trace.  Returns the frame's global index, or std::nullopt
  /// when the governor shed it or intake has finished.  Single producer.
  std::optional<std::uint64_t> submit(dsp::Trace trace);

  /// Supervision tick on the caller's clock (virtual or wall).  Runs the
  /// watchdog and applies any pending promotion / checkpoint.
  void poll(std::uint64_t now_ns);

  /// Drains the pipeline, applies pending control actions, commits the
  /// final checkpoint.  Idempotent.
  void finish();

  HealthState health() const;
  const vprofile::Model& model() const { return *model_; }
  SupervisorStats stats() const;
  /// Operator-requested incident (signal handler, status endpoint, CLI).
  /// Any thread; `detail` must have static storage duration.  No-op
  /// without a flight recorder.
  void trigger_incident(const char* detail);
  /// The flight recorder, or null when config.flight_recorder is off.
  obs::FlightRecorder* flight_recorder() { return recorder_.get(); }
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }
  /// Aggregated pipeline counters across every restart generation.
  pipeline::CountersSnapshot pipeline_counters() const;
  /// Order-exact digest of every handled result (verdict, distance bits)
  /// plus the shed-frame count — the soak harness's equivalence check.
  std::uint64_t fingerprint() const;

 private:
  /// Builds the current generation's scorer: a DetectionPipeline, or the
  /// inline step in lockstep.  Caller holds mu_ (or is the constructor).
  void create_scorer_locked();
  void handle(pipeline::FrameResult&& result);
  /// Lockstep intake under mu_: parks a planned-stall frame or queues the
  /// frame behind a parked one.  True when the frame is to be scored now.
  bool intake_locked(std::uint64_t global, dsp::Trace& trace);
  /// Lockstep: emits the parked frame as a worker_error, then scores the
  /// backlog in order.  No-op when nothing is parked.
  void release_parked();
  /// Applies pending promotion / checkpoint decisions.  Must be called
  /// without mu_ held (drains the pipeline).
  void apply_control();
  /// Drains + recreates the scorer; new_model empty = keep current.
  void restart_pipeline(std::optional<vprofile::Model> new_model);
  void accumulate_counters_locked();
  pipeline::CountersSnapshot live_counters_locked() const;
  void validate_candidate_locked();
  /// Bundle "context" object: detection config, deterministic counters,
  /// supervisor stats.  Takes mu_; call without it held.
  std::string context_json() const;

  SupervisorConfig config_;
  ResultSink sink_;
  std::shared_ptr<const vprofile::Model> model_;
  std::unique_ptr<pipeline::DetectionPipeline> pipe_;  // free-running
  /// Lockstep: the pipeline's scoring step, run on the caller's thread.
  std::unique_ptr<pipeline::ScoringCore> core_;
  std::unique_ptr<pipeline::ScoringCore::Scratch> scratch_;
  std::vector<pipeline::Job> jobs_;
  pipeline::ScoringCore::Emit emit_;  // inline result -> handle()
  Watchdog watchdog_;
  DriftSentinel sentinel_;
  std::optional<CheckpointStore> store_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  /// Caller's clock from the last poll(); stamps evidence records, so
  /// under lockstep + virtual clock the records stay deterministic.
  std::atomic<std::uint64_t> last_poll_ns_{0};

  mutable std::mutex mu_;
  /// Free-running: global index of the current pipeline's local seq 0.
  std::atomic<std::uint64_t> base_seq_{0};
  /// Lockstep planned-stall model (producer thread only, except
  /// backlog_high_, which mu_ guards): the parked frame's global index, the
  /// frames forwarded behind it, and how many of those a full backlog
  /// refused (they follow the backlog in global order).
  std::optional<std::uint64_t> parked_;
  std::vector<pipeline::Job> backlog_;
  std::uint64_t backlog_drops_ = 0;
  std::size_t backlog_high_ = 0;
  std::uint64_t fingerprint_ = vprofile::kFnv1aOffset;
  HealthState health_ = HealthState::kHealthy;
  bool finished_ = false;
  bool governor_active_ = false;
  std::uint64_t decimation_counter_ = 0;

  /// Retrain candidate (unique_ptr: GatedUpdater keeps a stable Model*).
  std::unique_ptr<vprofile::Model> candidate_;
  std::unique_ptr<vprofile::GatedUpdater> gated_;
  std::deque<vprofile::EdgeSet> validation_window_;
  std::uint64_t holdout_tick_ = 0;
  std::optional<vprofile::Model> pending_promotion_;
  bool checkpoint_due_ = false;

  pipeline::CountersSnapshot accumulated_;  // finished pipeline generations
  SupervisorStats stats_;
  vprofile::GatedUpdateStats gate_accum_;  // completed candidates' gate stats

  struct Instruments {
    obs::Counter* decimated = nullptr;
    obs::Counter* promotions = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* drift_alarms = nullptr;
    obs::Gauge* health = nullptr;
    obs::Gauge* governor_active = nullptr;
  } instruments_;
};

}  // namespace runtime
