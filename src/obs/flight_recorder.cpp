#include "obs/flight_recorder.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace obs {

namespace {

/// Spans folded into one bundle; a cap, not a window choice — the tracer
/// ring already keeps only recent spans.
constexpr std::size_t kMaxBundleSpans = 64;

/// Completed bundle JSONs kept in memory for bundle_json() / statusz.
constexpr std::size_t kRetainedBundles = 8;

}  // namespace

const char* to_string(IncidentCause cause) {
  switch (cause) {
    case IncidentCause::kAnomalyVerdict:
      return "anomaly-verdict";
    case IncidentCause::kDegradedVerdict:
      return "degraded-verdict";
    case IncidentCause::kDriftAlarm:
      return "drift-alarm";
    case IncidentCause::kRetrainRollback:
      return "retrain-rollback";
    case IncidentCause::kOperator:
      return "operator";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.pre_trigger > config_.ring_capacity) {
    config_.pre_trigger = config_.ring_capacity;
  }
  if (config_.post_trigger == 0) config_.post_trigger = 1;
  ring_.resize(config_.ring_capacity);
  pre_buf_.resize(config_.pre_trigger);
  post_buf_.resize(config_.post_trigger);
  if (!config_.incident_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.incident_dir, ec);
  }
  if (config_.metrics != nullptr) {
    // Eager registration: every cause exports (as 0) from the first
    // scrape, so dashboards never see series appear mid-run.
    for (std::size_t i = 0; i < kNumIncidentCauses; ++i) {
      incident_counters_[i] = config_.metrics->counter(
          "incidents_total",
          {{"bus", config_.bus},
           {"cause", to_string(static_cast<IncidentCause>(i))}});
    }
  }
}

// The evidence hot path: one struct copy into pre-allocated storage plus
// a relaxed index bump.  Freezing (begin_incident) copies between
// pre-allocated buffers; only emission (finalize_incident) allocates,
// locks and does IO, behind the cold boundary below.
// vprofile-lint: hot
void FlightRecorder::record(const EvidenceRecord& rec) {
  if (!open_.load(std::memory_order_relaxed) &&
      trigger_state_.load(std::memory_order_acquire) == kArmed) {
    // Freeze before storing: the trigger frame (already in the ring) ends
    // the pre-window; this record starts the post-window.
    begin_incident();
  }
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  ring_[static_cast<std::size_t>(head % ring_.size())] = rec;
  head_.store(head + 1, std::memory_order_relaxed);
  if (open_.load(std::memory_order_relaxed)) {
    post_buf_[post_n_] = rec;
    ++post_n_;
    if (post_n_ >= post_buf_.size()) finalize_incident();
  }
}

bool FlightRecorder::request_trigger(IncidentCause cause, std::uint64_t seq,
                                     const char* detail) {
  int expected = kIdle;
  if (open_.load(std::memory_order_relaxed) ||
      !trigger_state_.compare_exchange_strong(expected, kArming,
                                              std::memory_order_acq_rel)) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  pending_cause_ = cause;
  pending_seq_ = seq;
  pending_detail_ = detail != nullptr ? detail : "";
  trigger_state_.store(kArmed, std::memory_order_release);
  return true;
}

void FlightRecorder::begin_incident() {
  open_cause_ = pending_cause_;
  open_trigger_seq_ = pending_seq_;
  open_detail_ = pending_detail_;
  open_coalesced_before_ = coalesced_.load(std::memory_order_relaxed);
  trigger_state_.store(kIdle, std::memory_order_release);
  if (emitted_.load(std::memory_order_relaxed) >= config_.max_incidents) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t cap = ring_.size();
  std::uint64_t n = pre_buf_.size();
  if (head < n) n = head;
  for (std::uint64_t i = 0; i < n; ++i) {
    pre_buf_[static_cast<std::size_t>(i)] =
        ring_[static_cast<std::size_t>((head - n + i) % cap)];
  }
  pre_n_ = static_cast<std::size_t>(n);
  post_n_ = 0;
  open_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::flush() {
  if (!open_.load(std::memory_order_relaxed) &&
      trigger_state_.load(std::memory_order_acquire) == kArmed) {
    begin_incident();
  }
  if (open_.load(std::memory_order_relaxed)) finalize_incident();
}

// Sanctioned hot-path boundary: bundle emission happens at most once per
// incident (bounded by max_incidents) and buys the whole diagnosis — the
// JSON build, the atomic file write and the retained-list lock are the
// agreed price of capturing the evidence.
// vprofile-lint: cold
void FlightRecorder::finalize_incident() {
  IncidentSummary summary;
  summary.id = emitted_.load(std::memory_order_relaxed) + 1;
  summary.cause = open_cause_;
  summary.trigger_seq = open_trigger_seq_;
  summary.detail = open_detail_;
  summary.coalesced =
      coalesced_.load(std::memory_order_relaxed) - open_coalesced_before_;
  summary.pre_records = pre_n_;
  summary.post_records = post_n_;

  std::string json = build_bundle_json(summary);
  if (!config_.incident_dir.empty()) {
    char name[40];
    std::snprintf(name, sizeof(name), "INCIDENT_%06" PRIu64 ".json",
                  summary.id);
    const std::string path = config_.incident_dir + "/" + name;
    if (io::atomic_write_file(path, json)) summary.path = path;
  }

  emitted_.fetch_add(1, std::memory_order_relaxed);
  if (incident_counters_[static_cast<std::size_t>(summary.cause)] != nullptr) {
    incident_counters_[static_cast<std::size_t>(summary.cause)]->add();
  }
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    summaries_.push_back(summary);
    retained_.emplace_back(summary.id, std::move(json));
    while (retained_.size() > kRetainedBundles) retained_.pop_front();
  }
  pre_n_ = 0;
  post_n_ = 0;
  open_.store(false, std::memory_order_relaxed);
}

void FlightRecorder::append_record_json(std::string* out,
                                        const EvidenceRecord& rec) const {
  std::string& s = *out;
  s += "{\"seq\":" + json_u64(rec.seq);
  s += ",\"tick_ns\":" + json_u64(rec.tick_ns);
  s += ",\"sa\":" + std::to_string(static_cast<unsigned>(rec.sa));
  s += ",\"dropped\":";
  s += rec.dropped ? "true" : "false";
  s += ",\"worker_error\":";
  s += rec.worker_error ? "true" : "false";
  s += ",\"extract_error\":";
  if (rec.extract_error == 0) {
    s += "null";
  } else if (rec.extract_error < config_.num_extract_errors &&
             config_.extract_error_names != nullptr) {
    s += json_quote(config_.extract_error_names[rec.extract_error]);
  } else {
    s += json_quote(std::to_string(static_cast<unsigned>(rec.extract_error)));
  }
  s += ",\"extract_error_code\":" +
       std::to_string(static_cast<unsigned>(rec.extract_error));
  s += ",\"verdict\":";
  if (rec.verdict == kNoVerdict) {
    s += "null";
  } else if (rec.verdict < config_.num_verdicts &&
             config_.verdict_names != nullptr) {
    s += json_quote(config_.verdict_names[rec.verdict]);
  } else {
    s += json_quote(std::to_string(static_cast<unsigned>(rec.verdict)));
  }
  s += ",\"verdict_code\":" +
       (rec.verdict == kNoVerdict
            ? std::string("null")
            : std::to_string(static_cast<unsigned>(rec.verdict)));
  s += ",\"expected_cluster\":" + std::to_string(rec.expected_cluster);
  s += ",\"predicted_cluster\":" + std::to_string(rec.predicted_cluster);
  s += ",\"min_distance\":" + json_double(rec.min_distance);
  s += ",\"confidence\":" + json_double(rec.confidence);
  s += ",\"model_generation\":" + std::to_string(rec.model_generation);
  s += ",\"features\":[";
  const std::size_t dim =
      rec.dim <= kMaxEvidenceDim ? rec.dim : kMaxEvidenceDim;
  for (std::size_t i = 0; i < dim; ++i) {
    if (i != 0) s += ',';
    s += json_double(rec.features[i]);
  }
  s += "]}";
}

std::string FlightRecorder::build_bundle_json(
    const IncidentSummary& summary) const {
  std::string s = "{\"schema\":\"vprofile-incident-v1\"";
  s += ",\"manifest\":" + config_.manifest.to_json();
  s += ",\"bus\":" + json_quote(config_.bus);
  s += ",\"incident\":{\"id\":" + json_u64(summary.id);
  s += ",\"cause\":" + json_quote(to_string(summary.cause));
  s += ",\"detail\":" + json_quote(summary.detail);
  s += ",\"trigger_seq\":" + json_u64(summary.trigger_seq);
  s += ",\"coalesced\":" + json_u64(summary.coalesced);
  s += ",\"suppressed\":" +
       json_u64(suppressed_.load(std::memory_order_relaxed));
  s += ",\"ring_capacity\":" + std::to_string(ring_.size());
  s += ",\"records_seen\":" +
       json_u64(head_.load(std::memory_order_relaxed));
  s += ",\"pre_records\":" + std::to_string(summary.pre_records);
  s += ",\"post_records\":" + std::to_string(summary.post_records);
  s += "}";
  s += ",\"context\":";
  s += config_.context_json ? config_.context_json() : std::string("null");
  s += ",\"evidence\":{\"pre\":[";
  for (std::size_t i = 0; i < pre_n_; ++i) {
    if (i != 0) s += ',';
    append_record_json(&s, pre_buf_[i]);
  }
  s += "],\"post\":[";
  for (std::size_t i = 0; i < post_n_; ++i) {
    if (i != 0) s += ',';
    append_record_json(&s, post_buf_[i]);
  }
  s += "]}";
  if (config_.tracer != nullptr) {
    // Live collect is data-race-free (the rings are atomic slots) but
    // best-effort: a span mid-overwrite may read torn.  Fine for
    // diagnostics; the byte-stable soak scenario runs without a tracer.
    const std::vector<TraceEvent> events = config_.tracer->collect();
    const std::size_t start =
        events.size() > kMaxBundleSpans ? events.size() - kMaxBundleSpans : 0;
    s += ",\"trace_spans\":[";
    for (std::size_t i = start; i < events.size(); ++i) {
      if (i != start) s += ',';
      const TraceEvent& ev = events[i];
      s += "{\"name\":" +
           json_quote(ev.name != nullptr ? ev.name : "?");
      s += ",\"start_ns\":" + json_u64(ev.start_ns);
      s += ",\"dur_ns\":" + json_u64(ev.dur_ns);
      s += ",\"tid\":" + std::to_string(ev.tid);
      s += "}";
    }
    s += "]";
  }
  s += "}\n";
  return s;
}

std::vector<IncidentSummary> FlightRecorder::incidents() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return summaries_;
}

std::string FlightRecorder::bundle_json(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  for (const auto& [bundle_id, json] : retained_) {
    if (bundle_id == id) return json;
  }
  return "";
}

}  // namespace obs
