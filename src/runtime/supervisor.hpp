// Self-healing supervision around the pipeline's scoring step.
//
// The pipeline scores frames; the supervisor keeps the *model* honest
// across hours of unattended operation:
//
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
//
// The supervisor sheds no load: every frame submit() accepts yields one
// ordered result (scored, worker_error, or dropped by a full queue).
//
// Threading contract: one producer thread calls submit()/poll()/finish().
// Free-running, results are handled on DetectionPipeline worker threads
// (serialized, in capture order) and forwarded to the caller's sink.
// Lockstep has no pipeline and no thread: submit() runs the pipeline's
// ScoringCore step and handle() on the caller's thread, so the whole
// supervised run — verdicts, promotions, rollbacks — is a pure function
// of (model, config, input stream): the soak harness's bit-identical-
// fingerprint guarantee.  Scoring is bounded and pure, so a lockstep
// submit() always returns with its frame handled; a hang inside it would
// block the very thread that calls poll().
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
#include "obs/flight_recorder.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/drift_sentinel.hpp"

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace runtime {

struct SupervisorConfig {
  /// Base pipeline tuning (lockstep uses only the scoring fields).
  /// keep_edge_set is forced on while online updates are enabled.
  pipeline::PipelineConfig pipeline;
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
  /// Held-back recent benign frames the candidate must re-classify
  /// (one in kValidationHoldoutStride, see supervisor.cpp).
  std::size_t validation_window = 64;
  /// Candidate anomalies allowed on that window before rollback.
  std::size_t validation_max_regressions = 0;

  /// Deterministic mode: submit() scores the frame inline and hands its
  /// result to the sink before returning (see the threading contract).
  bool lockstep = false;

  /// Flight recorder: per-frame evidence ring + freeze-on-trigger
  /// incident bundles (obs/flight_recorder.hpp).  Sizing, incident_dir
  /// and the manifest come from `recorder`; the supervisor itself wires
  /// the verdict/extract-error name tables, the context callback, and —
  /// unless `recorder` already sets them — the pipeline's metrics
  /// registry and tracer.  Triggers: anomalous/degraded verdicts, drift
  /// alarms, retrain rollbacks and trigger_incident().
  bool flight_recorder = false;
  obs::FlightRecorderConfig recorder;
};

struct SupervisorStats {
  std::uint64_t frames_submitted = 0;  // accepted by submit()
  std::uint64_t frames_handled = 0;    // results seen (ordered)
  std::uint64_t worker_errors = 0;
  /// Always 0 and in no output: no path restarts a scorer.  Kept only
  /// because the end-to-end benchmark (bench/e2e/workloads.cpp) reads it.
  std::uint64_t restarts = 0;
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
  /// across promotions), not the pipeline-local sequence.
  using ResultSink = std::function<void(const pipeline::FrameResult&)>;

  Supervisor(vprofile::Model model, SupervisorConfig config,
             ResultSink sink = nullptr);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Offers one trace.  Returns the frame's global index, or std::nullopt
  /// when intake has finished.  Single producer.
  std::optional<std::uint64_t> submit(dsp::Trace trace);

  /// Supervision tick on the caller's clock (virtual or wall).  Stamps
  /// the clock on later evidence records and applies any pending
  /// promotion / checkpoint.
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
  /// Aggregated pipeline counters across every model generation.
  pipeline::CountersSnapshot pipeline_counters() const;
  /// Order-exact digest of every handled result (verdict, distance bits)
  /// plus the lifecycle counts — the soak harness's equivalence check.
  std::uint64_t fingerprint() const;

 private:
  /// Builds the current generation's scorer: a DetectionPipeline, or the
  /// inline step in lockstep.  Caller holds mu_ (or is the constructor).
  void create_scorer_locked();
  void handle(pipeline::FrameResult&& result);
  /// Applies pending promotion / checkpoint decisions.  Must be called
  /// without mu_ held (drains the pipeline).
  void apply_control();
  /// Drains the scorer, swaps in the promoted model and builds the next
  /// generation's scorer over it.
  void swap_in_promoted(vprofile::Model promoted);
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
  DriftSentinel sentinel_;
  std::optional<CheckpointStore> store_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  /// Caller's clock from the last poll(); stamps evidence records, so
  /// under lockstep + virtual clock the records stay deterministic.
  std::atomic<std::uint64_t> last_poll_ns_{0};

  mutable std::mutex mu_;
  /// Free-running: global index of the current pipeline's local seq 0.
  std::atomic<std::uint64_t> base_seq_{0};
  std::uint64_t fingerprint_ = vprofile::kFnv1aOffset;
  HealthState health_ = HealthState::kHealthy;
  bool finished_ = false;

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
    obs::Counter* promotions = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* drift_alarms = nullptr;
    obs::Gauge* health = nullptr;
  } instruments_;
};

}  // namespace runtime
