#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace pipeline {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

ScoringCore::ScoringCore(const vprofile::Model& model, PipelineConfig config)
    : model_(model), config_(std::move(config)), plan_(model, config_.backend) {
  if (config_.metrics != nullptr) {
    // Resolve every fixed series up front: the registry mutex is paid
    // here, once, and the hot path only ever touches lock-free handles.
    obs::MetricsRegistry& reg = *config_.metrics;
    obs_.submitted = reg.counter("frames_submitted_total");
    obs_.completed = reg.counter("frames_completed_total");
    obs_.dropped = reg.counter("frames_dropped_total");
    obs_.errors = reg.counter("errors_total");
    obs_.extract_latency = reg.histogram("extract_latency_ns");
    obs_.detect_latency = reg.histogram("detect_latency_ns");
    // vprofile-lint: allow(metric-name) — depth is unitless by design
    obs_.queue_depth = reg.gauge("queue_depth");
  }
}

void ScoringCore::note_submitted(std::size_t depth, bool dropped) {
  counters_.add_submitted();
  if (dropped) counters_.add_dropped();
  if (metered()) {
    obs_.submitted->add();
    obs_.queue_depth->set(static_cast<std::int64_t>(depth));
    if (dropped) obs_.dropped->add();
  }
}

void ScoringCore::note_depth(std::size_t depth) {
  if (metered()) obs_.queue_depth->set(static_cast<std::int64_t>(depth));
}

// Sanctioned boundary: the registry mutex is paid at most once per SA
// (first frame from that address); afterwards the atomic cache hits.
// vprofile-lint: cold
obs::Histogram* ScoringCore::sa_histogram(std::uint8_t sa) {
  obs::Histogram* h =
      obs_.detect_by_sa[sa].load(std::memory_order_acquire);
  if (h == nullptr) {
    char label[8];
    std::snprintf(label, sizeof(label), "0x%02X", sa);
    h = config_.metrics->histogram("detect_latency_ns", {{"sa", label}});
    // Losing this race is harmless: the registry returned the same
    // pointer to every contender.
    obs_.detect_by_sa[sa].store(h, std::memory_order_release);
  }
  return h;
}

void ScoringCore::fail_job(std::uint64_t seq, const Emit& emit) {
  Scratch::Slot slot;
  slot.result.seq = seq;
  slot.result.worker_error = true;
  obs::Tracer* const tracer = config_.tracer;
  complete_slot(slot, tracer != nullptr ? tracer->now_ns() : 0, emit);
}

// vprofile-lint: hot
void ScoringCore::score_jobs(Scratch& scratch, const std::vector<Job>& jobs,
                             const Emit& emit) {
  using Slot = Scratch::Slot;
  obs::Tracer* const tracer = config_.tracer;
  const std::uint64_t t_start = tracer != nullptr ? tracer->now_ns() : 0;
  std::vector<Slot>& slots = scratch.slots;
  std::vector<const vprofile::EdgeSet*>& to_score = scratch.to_score;
  std::vector<std::size_t>& score_slot = scratch.score_slot;

  // Stage 1 — per frame: hook + extraction, individually contained.  A
  // throwing stage (extractor bug, hostile input, injected fault) must
  // cost exactly one frame, not the worker — an escaped exception from a
  // std::thread is std::terminate for the whole monitor.
  slots.clear();
  slots.resize(jobs.size());
  to_score.clear();
  score_slot.clear();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& job = jobs[k];
    Slot& slot = slots[k];
    slot.result.seq = job.seq;
    if (tracer != nullptr && job.submit_ns != 0) {
      tracer->record("pipeline.queue", job.submit_ns,
                     t_start - job.submit_ns);
    }
    try {
      if (config_.stage_hook) config_.stage_hook(job.seq, job.trace);
      const auto t0 = Clock::now();
      vprofile::ExtractError err = vprofile::ExtractError::kNone;
      slot.result.edge_set =
          vprofile::extract_edge_set(job.trace, model_.extraction(), &err);
      slot.extract_ns = ns_between(t0, Clock::now());
      if (slot.result.edge_set) {
        slot.result.sa = slot.result.edge_set->sa;
        to_score.push_back(&*slot.result.edge_set);
        score_slot.push_back(k);
      } else {
        slot.result.extract_error = err;
      }
    } catch (...) {
      slot = Slot{};
      slot.result.seq = job.seq;
      slot.result.worker_error = true;
    }
  }

  // Stage 2 — the batch: every surviving edge set scored through the
  // shared plan in one SoA pass.  Detection cost is attributed evenly
  // across the batch (remainder to the first frame) — telemetry only,
  // verdicts never depend on timing.
  if (!to_score.empty()) {
    std::vector<vprofile::Detection>& detections = scratch.detections;
    detections.clear();
    detections.resize(to_score.size());
    const auto td0 = Clock::now();
    bool batch_failed = false;
    try {
      scratch.scorer.detect(to_score.data(), to_score.size(),
                            config_.detection, detections.data());
    } catch (...) {
      batch_failed = true;
    }
    const std::uint64_t batch_ns = ns_between(td0, Clock::now());
    const std::uint64_t share = batch_ns / to_score.size();
    const std::uint64_t remainder = batch_ns % to_score.size();
    for (std::size_t k = 0; k < to_score.size(); ++k) {
      Slot& slot = slots[score_slot[k]];
      if (batch_failed) {
        const std::uint64_t seq = slot.result.seq;
        slot = Slot{};
        slot.result.seq = seq;
        slot.result.worker_error = true;
        continue;
      }
      slot.detect_ns = share + (k == 0 ? remainder : 0);
      slot.result.detection = detections[k];
      if (!config_.keep_edge_set) slot.result.edge_set.reset();
    }
  }

  // Stage 3 — per frame, in batch order.
  for (Slot& slot : slots) complete_slot(slot, t_start, emit);
}

// vprofile-lint: hot
void ScoringCore::complete_slot(Scratch::Slot& slot, std::uint64_t t_start,
                                const Emit& emit) {
  FrameResult& result = slot.result;
  counters_.add_completed(slot.extract_ns, slot.detect_ns);
  if (result.worker_error) {
    counters_.add_worker_error();
  } else {
    counters_.add_outcome(result.extract_error, result.detection);
  }
  if (obs_.completed != nullptr) {
    obs_.completed->add();
    if (result.worker_error) obs_.errors->add();
    obs_.extract_latency->observe(slot.extract_ns);
    obs_.detect_latency->observe(slot.detect_ns);
    if (result.ok()) sa_histogram(result.sa)->observe(slot.detect_ns);
  }
  if (obs::Tracer* const tracer = config_.tracer) {
    // Durations are the step's own measurements; start offsets are
    // approximate (stages of one batch interleave).
    tracer->record("pipeline.extract", t_start, slot.extract_ns);
    tracer->record("pipeline.detect", t_start + slot.extract_ns,
                   slot.detect_ns);
  }
  emit(std::move(result));
}

DetectionPipeline::DetectionPipeline(const vprofile::Model& model,
                                     PipelineConfig config, ResultSink sink)
    : core_(model, std::move(config)),
      queue_(core_.config().queue_capacity),
      collector_(std::move(sink)) {
  if (core_.config().num_workers == 0) {
    throw std::invalid_argument("DetectionPipeline: need at least one worker");
  }
  emit_ = [this](FrameResult&& result) {
    if (core_.metered()) core_.note_depth(queue_.size());
    obs::TraceSpan collect_span(core_.config().tracer, "pipeline.collect");
    collector_.submit(result.seq, std::move(result));
  };
  workers_.reserve(core_.config().num_workers);
  for (std::size_t i = 0; i < core_.config().num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DetectionPipeline::~DetectionPipeline() { finish(); }

// Producer-side entry, not part of the worker hot cone (the name-matched
// call graph would otherwise conflate it with OrderedCollector::submit).
// vprofile-lint: cold
std::optional<std::uint64_t> DetectionPipeline::submit(dsp::Trace trace) {
  const PipelineConfig& config = core_.config();
  obs::TraceSpan span(config.tracer, "pipeline.submit");
  // One lock covers seq assignment *and* the enqueue/drop decision, so the
  // collector always sees a dense sequence space: every assigned seq is
  // either in the queue or already emitted as dropped.  Backpressure in
  // blocking mode stalls all producers here, which is the intent.
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (finished_) return std::nullopt;
  const std::uint64_t seq = next_seq_;
  Job job{seq, std::move(trace),
          config.tracer != nullptr ? config.tracer->now_ns() : 0};
  bool accepted;
  if (config.block_when_full) {
    accepted = queue_.push(std::move(job));
  } else {
    accepted = queue_.try_push(std::move(job));
  }
  ++next_seq_;
  core_.note_submitted(core_.metered() ? queue_.size() : 0, !accepted);
  if (accepted) return seq;

  FrameResult dropped;
  dropped.seq = seq;
  dropped.dropped = true;
  collector_.submit(seq, std::move(dropped));
  return std::nullopt;
}

void DetectionPipeline::finish() {
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    finished_ = true;
  }
  queue_.close();
  // Serialize joining so concurrent finish() calls are safe: the second
  // caller blocks here until the first has joined everything, then sees
  // every worker unjoinable.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Drained means conserved: every submitted frame is now completed or
  // dropped and every completed frame has exactly one outcome.  This is
  // the pipeline's core accounting invariant — enforced unconditionally
  // (assert() is compiled out in the default RelWithDebInfo build).
  const CountersSnapshot snap = counters();
  if (!snap.consistent()) {
    std::fprintf(stderr,
                 "DetectionPipeline::finish(): counter conservation violated "
                 "(submitted=%llu completed=%llu dropped=%llu "
                 "extract_failures=%llu classified=%llu worker_errors=%llu)\n",
                 static_cast<unsigned long long>(snap.submitted.value()),
                 static_cast<unsigned long long>(snap.completed.value()),
                 static_cast<unsigned long long>(snap.dropped.value()),
                 static_cast<unsigned long long>(snap.extract_failures()),
                 static_cast<unsigned long long>(snap.classified()),
                 static_cast<unsigned long long>(snap.worker_errors));
    std::abort();
  }
}

// vprofile-lint: hot
void DetectionPipeline::worker_loop() {
  ScoringCore::Scratch scratch(core_);
  std::vector<Job> jobs;
  const std::size_t batch_max =
      std::max<std::size_t>(1, core_.config().batch_size);
  jobs.reserve(batch_max);
  while (queue_.pop_some(&jobs, batch_max) > 0) {
    core_.score_jobs(scratch, jobs, emit_);
  }
}

std::vector<FrameResult> score_sequential(
    const vprofile::Model& model, const std::vector<dsp::Trace>& traces,
    const vprofile::DetectionConfig& dc) {
  std::vector<FrameResult> results(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    FrameResult& r = results[i];
    r.seq = i;
    auto edge_set = vprofile::extract_edge_set(traces[i], model.extraction(),
                                               &r.extract_error);
    if (!edge_set) continue;
    r.sa = edge_set->sa;
    r.detection = vprofile::detect(model, *edge_set, dc);
  }
  return results;
}

}  // namespace pipeline
