// Flight recorder: a pre-allocated, single-writer ring of recent evidence
// records with freeze-on-trigger incident bundles.
//
// The recorder answers the question the live metrics cannot: *what was on
// the bus when it happened*.  A serialized result path (the supervisor's
// ordered sink) stores one EvidenceRecord per handled frame into a
// fixed-capacity ring — a struct copy plus a relaxed index bump, nothing
// else on the hot path.  Any thread may request a trigger (anomalous
// verdict, drift alarm, retrain rollback, operator signal); the request
// is a lock-free arm of a one-slot pending cell.  The *writer* consumes
// it at its next record() call:
// the pre-trigger window is frozen out of the ring, a bounded
// post-trigger window is captured as the next records arrive, and the
// completed incident is emitted as a byte-stable JSON bundle (schema
// `vprofile-incident-v1`) via io::atomic_write_file — so a bundle on disk
// is always complete, never a torn prefix.
//
// Threading contract:
//  * record() / flush(): one writer at a time (the pipeline's serialized
//    result order).  Lock-free; freezing and the pre/post window copies
//    touch only pre-allocated storage.
//  * request_trigger(): any thread, any time.  Lock-free (one CAS).
//    Triggers that land while an incident is already open or armed are
//    coalesced (counted, not lost as a fact — the open bundle reports the
//    count).
//  * incidents() / bundle_json() / counters: any thread (mutex-guarded
//    retained list, atomics).
//
// Determinism: bundles contain no timestamps beyond the caller-supplied
// RunManifest and the caller-supplied per-record tick.  Under the
// supervisor's lockstep mode the whole bundle — evidence, context,
// incident metadata — is a pure function of (model, config, input
// stream), which is what makes every incident a reproducible test case
// for tools/vprofile_replay.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/manifest.hpp"

namespace obs {

class Counter;
class MetricsRegistry;
class Tracer;

/// Feature-vector slots per evidence record.  Records are fixed-size so
/// the ring is one flat allocation; the vehicle presets extract dim 66
/// (2 * (prefix 2 + suffix 14 + 1) scaled to the ADC rate), so 128
/// leaves headroom for wider windows without a resize.  Records wider
/// than this are truncated — replay skips them rather than mis-verify.
inline constexpr std::size_t kMaxEvidenceDim = 128;

/// EvidenceRecord::verdict value meaning "no verdict was produced".
inline constexpr std::uint8_t kNoVerdict = 0xFF;

/// Why an incident was opened.
enum class IncidentCause : std::uint8_t {
  kAnomalyVerdict = 0,   ///< confident anomaly (mismatch / distance / SA)
  kDegradedVerdict = 1,  ///< capture quality refused a confident verdict
  kDriftAlarm = 2,       ///< Page–Hinkley sentinel latched
  kRetrainRollback = 3,  ///< candidate model failed validation
  kOperator = 4,         ///< external request (signal, status endpoint)
};

inline constexpr std::size_t kNumIncidentCauses = 5;

const char* to_string(IncidentCause cause);

/// One handled frame, as the recorder keeps it.  Codes (verdict,
/// extract_error) are the producer's enum values; the recorder renders
/// them through the caller-supplied name tables so obs/ never depends on
/// the detection layer.  Features are stored as exact doubles (ADC-code
/// domain — already quantized to the capture grid) so a replay scores
/// bit-identical inputs.
struct EvidenceRecord {
  std::uint64_t seq = 0;      ///< producer's global frame index
  std::uint64_t tick_ns = 0;  ///< caller's clock (virtual under lockstep)
  double min_distance = 0.0;
  double confidence = 0.0;
  std::int32_t expected_cluster = -1;  ///< -1 = none
  std::int32_t predicted_cluster = -1;
  std::uint32_t model_generation = 0;  ///< promotions before this frame
  std::uint16_t dim = 0;               ///< 0 = no feature vector retained
  std::uint8_t sa = 0;
  std::uint8_t verdict = kNoVerdict;
  std::uint8_t extract_error = 0;  ///< producer's code; 0 = none
  bool dropped = false;
  bool worker_error = false;
  std::array<double, kMaxEvidenceDim> features{};
};

/// What the retained-incident list exposes (statusz, tests).
struct IncidentSummary {
  std::uint64_t id = 0;  ///< 1-based emission sequence
  IncidentCause cause = IncidentCause::kOperator;
  std::uint64_t trigger_seq = 0;
  std::string detail;
  std::uint64_t coalesced = 0;  ///< triggers merged into this incident
  std::size_t pre_records = 0;
  std::size_t post_records = 0;
  std::string path;  ///< written bundle, "" when in-memory only
};

struct FlightRecorderConfig {
  /// Bus label stamped into bundles and the incidents_total series.
  std::string bus = "bus0";
  /// Evidence records the ring retains (pre-allocated, power of anything).
  std::size_t ring_capacity = 256;
  /// Records frozen from before (and including) the trigger frame.
  /// Clamped to ring_capacity.
  std::size_t pre_trigger = 64;
  /// Records captured after the trigger before the bundle is emitted.
  std::size_t post_trigger = 16;
  /// Bundles emitted before further triggers are suppressed (counted).
  std::size_t max_incidents = 32;
  /// Bundle files (`INCIDENT_<id>.json`) land here; "" = in-memory only.
  std::string incident_dir;
  /// Provenance stamp for every bundle.  Supply a fixed manifest for
  /// byte-stable output (RunManifest::create() reads the wall clock).
  RunManifest manifest;
  /// Verdict / extract-error code -> name tables (index = code).  Codes
  /// outside the table render as numbers.
  const char* const* verdict_names = nullptr;
  std::size_t num_verdicts = 0;
  const char* const* extract_error_names = nullptr;
  std::size_t num_extract_errors = 0;
  /// Called at bundle-emission time (writer thread, no recorder lock
  /// held); must return one JSON object with producer context (counters,
  /// detection config, supervisor state).  Null renders "context":null.
  std::function<std::string()> context_json;
  /// Non-null: per-bus incidents_total{cause=...} counters (registered
  /// eagerly so every cause exports from frame zero).
  MetricsRegistry* metrics = nullptr;
  /// Non-null: recent trace spans are folded into each bundle.
  Tracer* tracer = nullptr;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Stores one record (single writer).  Consumes a pending trigger:
  /// freezes the pre-window *before* storing, so the new record is the
  /// first post-trigger record and the windows are disjoint.
  void record(const EvidenceRecord& rec);

  /// Arms an incident (any thread).  `detail` must be a string with
  /// static storage duration (a literal).  Returns false when the request
  /// was coalesced into an already-armed/open incident (or suppressed
  /// past max_incidents — the bundle cap is enforced at freeze time).
  bool request_trigger(IncidentCause cause, std::uint64_t seq,
                       const char* detail);

  /// Emits any armed/open incident with whatever post-window exists.
  /// Call at quiescence (after the producer drained); writer thread only.
  void flush();

  /// Records ever stored (including overwritten ones).
  std::uint64_t records_seen() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t incidents_emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// Triggers merged into an armed/open incident instead of opening one.
  std::uint64_t triggers_coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  /// Incidents dropped entirely by the max_incidents cap.
  std::uint64_t incidents_suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }
  /// True while a post-trigger window is being captured.
  bool incident_open() const { return open_.load(std::memory_order_relaxed); }

  /// Every emitted incident, oldest first (bounded by max_incidents).
  std::vector<IncidentSummary> incidents() const;
  /// Retained bundle JSON by incident id; "" when unknown or evicted
  /// (only the newest few stay in memory).
  std::string bundle_json(std::uint64_t id) const;

  const FlightRecorderConfig& config() const { return config_; }

 private:
  void begin_incident();
  void finalize_incident();
  std::string build_bundle_json(const IncidentSummary& summary) const;
  void append_record_json(std::string* out, const EvidenceRecord& rec) const;

  FlightRecorderConfig config_;
  std::vector<EvidenceRecord> ring_;
  std::atomic<std::uint64_t> head_{0};

  /// One-slot pending trigger: kIdle -> kArming (fields being written)
  /// -> kArmed (writer may consume).
  static constexpr int kIdle = 0;
  static constexpr int kArming = 1;
  static constexpr int kArmed = 2;
  std::atomic<int> trigger_state_{kIdle};
  IncidentCause pending_cause_ = IncidentCause::kOperator;
  std::uint64_t pending_seq_ = 0;
  const char* pending_detail_ = "";

  /// Open-incident state: written by the writer thread only; open_ is
  /// atomic so request_trigger can coalesce against it from any thread.
  std::atomic<bool> open_{false};
  IncidentCause open_cause_ = IncidentCause::kOperator;
  std::uint64_t open_trigger_seq_ = 0;
  const char* open_detail_ = "";
  std::uint64_t open_coalesced_before_ = 0;
  std::vector<EvidenceRecord> pre_buf_;
  std::vector<EvidenceRecord> post_buf_;
  std::size_t pre_n_ = 0;
  std::size_t post_n_ = 0;

  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> suppressed_{0};

  std::array<Counter*, kNumIncidentCauses> incident_counters_{};

  mutable std::mutex retained_mu_;
  std::vector<IncidentSummary> summaries_;
  std::deque<std::pair<std::uint64_t, std::string>> retained_;
};

}  // namespace obs
