// Streaming capture -> extract -> detect pipeline.
//
// The batch path (sim::Experiment) scores recorded captures one at a time;
// a deployed vProfile monitor has to keep up with a live bus.  This
// pipeline runs Algorithm 1 + Algorithm 3 on a worker pool behind a
// bounded queue and re-orders verdicts back into capture order:
//
//   submit(trace)                    worker pool                sink
//   ------------- > RingQueue > extract + batched detect > OrderedCollector
//    (seq assigned)  (bounded,        (parallel)            (capture order)
//                    backpressure)
//
// Workers drain the queue in batches (PipelineConfig::batch_size) and run
// ScoringCore on each: frames are extracted (and fault-contained) one by
// one, survivors scored together through a BatchScorer over one shared
// ScoringPlan.  The lockstep Supervisor and sim::ScenarioRunner run the
// same step inline on the caller's thread; the worker pool itself is
// driven only by the end-to-end benchmark (bench/e2e) and its own tests.
//
// Guarantees:
//  * Every submitted frame produces exactly one FrameResult at the sink,
//    in submission order, even when workers finish out of order and even
//    for frames dropped by a full queue in non-blocking mode.
//  * Scoring is bit-identical to calling extract_edge_set() + detect()
//    sequentially: the batch scorer's kernels mirror the one-frame
//    reference operation-for-operation, so nothing about a frame's result
//    depends on scheduling, batch boundaries, or the backend the runtime
//    dispatcher resolved (linalg/simd_dispatch.hpp).
//  * finish() drains: it stops intake, waits for every accepted frame to
//    be scored and emitted, then joins the workers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "core/batch_scorer.hpp"
#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/model.hpp"
#include "dsp/trace.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/ordered_collector.hpp"
#include "pipeline/ring_queue.hpp"

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace obs

namespace pipeline {

/// Pipeline tuning knobs.
struct PipelineConfig {
  /// Worker threads running extraction + detection.
  std::size_t num_workers = 1;
  /// Ring capacity between submit() and the workers.
  std::size_t queue_capacity = 256;
  /// true: submit() blocks while the queue is full (lossless, offline
  /// scoring).  false: submit() drops the frame and records it (live
  /// monitor that must never stall the tap).
  bool block_when_full = true;
  /// Frames a worker pulls from the queue per wait and scores as one SoA
  /// batch.  1 degrades to the per-frame path; larger batches amortize the
  /// queue hand-off and feed the SIMD kernels full quads.  Verdicts do not
  /// depend on this value (see the bit-identity guarantee above).
  std::size_t batch_size = 8;
  vprofile::DetectionConfig detection;
  /// Attach the extracted edge set to each ok() FrameResult.  Off by
  /// default (results stay small); the supervised runtime turns it on so
  /// gated online updates can fold verdict-approved edge sets without
  /// re-extracting.  Scoring is bit-identical either way.
  bool keep_edge_set = false;
  /// Test/fault-injection hook run in the worker before a frame is scored
  /// (runtime fault profiles use it to wedge or crash a stage on cue).  A
  /// throw from the hook — like a throw from any stage — is contained:
  /// the frame becomes a worker_error result and the worker survives.
  /// Null (the default) costs nothing.
  std::function<void(std::uint64_t seq, const dsp::Trace& trace)> stage_hook;
  /// Optional observability sinks; null = zero overhead (scoring is
  /// bit-identical either way — instruments only ever read the results).
  /// Both must outlive the pipeline.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// One frame's outcome, emitted in capture order.
struct FrameResult {
  std::uint64_t seq = 0;
  /// Frame rejected by a full queue (non-blocking mode); nothing else set.
  bool dropped = false;
  /// A stage threw while scoring this frame (contained per-frame: the
  /// worker survives, the frame gets this error outcome instead of a
  /// verdict).  Nothing else is set.
  bool worker_error = false;
  /// kNone iff extraction succeeded and `detection` is set.
  vprofile::ExtractError extract_error = vprofile::ExtractError::kNone;
  /// SA decoded from the trace; only valid when ok().
  std::uint8_t sa = 0;
  std::optional<vprofile::Detection> detection;
  /// The scored edge set, retained only when PipelineConfig::keep_edge_set
  /// is on and extraction succeeded.
  std::optional<vprofile::EdgeSet> edge_set;

  bool ok() const {
    return !dropped && !worker_error &&
           extract_error == vprofile::ExtractError::kNone;
  }
};

/// One frame handed to the scoring step.
struct Job {
  std::uint64_t seq = 0;
  dsp::Trace trace;
  /// Tracer timestamp at enqueue (0: tracing off, or never queued); the
  /// step emits the queue-wait span from it.
  std::uint64_t submit_ns = 0;
};

/// The synchronous scoring step every layer calls: per frame the stage
/// hook and Algorithm 1 (exception-contained), one BatchScorer pass over
/// the survivors, then accounting, instruments and emission in batch
/// order.  Plan, counters and instruments are shared and thread-safe;
/// each thread brings its own Scratch.  The model must outlive the core.
class ScoringCore {
 public:
  using Emit = std::function<void(FrameResult&&)>;

  ScoringCore(const vprofile::Model& model, PipelineConfig config);

  /// Per-thread workspace: the BatchScorer's buffers plus the batch's
  /// bookkeeping, grown once so steady state never allocates for it.
  struct Scratch {
    explicit Scratch(const ScoringCore& core) : scorer(core.plan_) {}

    struct Slot {
      FrameResult result;  // edge_set kept until scored
      std::uint64_t extract_ns = 0;
      std::uint64_t detect_ns = 0;
    };
    vprofile::BatchScorer scorer;
    std::vector<Slot> slots;
    std::vector<const vprofile::EdgeSet*> to_score;
    std::vector<std::size_t> score_slot;  // slot index per to_score entry
    std::vector<vprofile::Detection> detections;
  };

  /// Scores `jobs` as one batch and emits exactly one result per job, in
  /// order.
  void score_jobs(Scratch& scratch, const std::vector<Job>& jobs,
                  const Emit& emit);
  /// Emits frame `seq` as a contained worker_error without scoring it,
  /// through the same accounting as a stage that threw.
  void fail_job(std::uint64_t seq, const Emit& emit);

  /// Intake accounting for the queue in front of the step: one frame
  /// submitted (`depth` now wait), and whether a full queue dropped it.
  void note_submitted(std::size_t depth, bool dropped = false);
  /// Queue depth gauge; no-op unless metered().
  void note_depth(std::size_t depth);
  bool metered() const { return obs_.queue_depth != nullptr; }

  CountersSnapshot counters(std::size_t queue_high_watermark) const {
    return counters_.snapshot(queue_high_watermark);
  }
  const PipelineConfig& config() const { return config_; }

 private:
  /// Pre-registered metric handles, resolved once in the constructor so
  /// the hot path never touches the registry mutex.  All null when
  /// config_.metrics is null.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* extract_latency = nullptr;
    obs::Histogram* detect_latency = nullptr;
    obs::Gauge* queue_depth = nullptr;
    /// Lazily resolved per-source-address series (detect_latency_ns{sa}).
    /// Benign races: the registry hands every thread the same pointer.
    std::array<std::atomic<obs::Histogram*>, 256> detect_by_sa{};
  };

  obs::Histogram* sa_histogram(std::uint8_t sa);
  void complete_slot(Scratch::Slot& slot, std::uint64_t t_start,
                     const Emit& emit);

  const vprofile::Model& model_;
  PipelineConfig config_;
  /// Immutable scoring operands (resolved backend, cached Cholesky
  /// factors), shared read-only by every Scratch's BatchScorer.  Built
  /// once here — "model load" time.
  vprofile::ScoringPlan plan_;
  Counters counters_;
  Instruments obs_;
};

/// Worker-pool pipeline over one trained model: a bounded queue, workers
/// running ScoringCore::score_jobs on each batch they pop, and an ordered
/// collector.  The model must outlive the pipeline and is never mutated
/// through it.
class DetectionPipeline {
 public:
  using ResultSink = std::function<void(FrameResult&&)>;

  /// Starts the workers.  The sink is called in strict capture order from
  /// worker threads (serialized by the collector); keep it cheap.  Throws
  /// std::invalid_argument for zero workers.
  DetectionPipeline(const vprofile::Model& model, PipelineConfig config,
                    ResultSink sink);

  /// Drains and joins (finish()) if the caller did not.
  ~DetectionPipeline();

  DetectionPipeline(const DetectionPipeline&) = delete;
  DetectionPipeline& operator=(const DetectionPipeline&) = delete;

  /// Enqueues one message-aligned trace; thread-safe.  Returns the frame's
  /// sequence number, or std::nullopt when the frame was not accepted —
  /// dropped by a full queue in non-blocking mode (still emitted to the
  /// sink as a dropped FrameResult, in order) or refused after finish()
  /// (not emitted: it was never part of the stream).
  std::optional<std::uint64_t> submit(dsp::Trace trace);

  /// Stops intake, waits until every accepted frame has been scored and
  /// emitted, joins the workers.  Idempotent.
  void finish();

  /// Observability.  Stable after finish(); a live approximation before.
  CountersSnapshot counters() const {
    return core_.counters(queue_.high_watermark());
  }
  std::size_t queue_depth() const { return queue_.size(); }

  const PipelineConfig& config() const { return core_.config(); }

 private:
  void worker_loop();

  ScoringCore core_;
  RingQueue<Job> queue_;
  OrderedCollector<FrameResult> collector_;
  /// Built once: hands each scored result to the collector.
  ScoringCore::Emit emit_;
  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  // serializes seq assignment with enqueue/drop
  std::mutex join_mu_;    // serializes worker joining across finish() calls
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;
};

/// Reference single-threaded scoring of a whole batch — the equivalence
/// oracle for the pipeline.
/// Produces exactly the FrameResult stream a 1..N-worker pipeline emits.
std::vector<FrameResult> score_sequential(const vprofile::Model& model,
                                          const std::vector<dsp::Trace>& traces,
                                          const vprofile::DetectionConfig& dc);

}  // namespace pipeline
