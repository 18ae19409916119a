// Sharded multi-tenant serving layer over runtime::Supervisor.
//
// One vprofile_monitor process per truck does not scale to a fleet; this
// layer multiplexes many vehicle×bus *tenants* over a pool of N shards,
// each tenant pinned to a shard by FNV-1a of its id and owning its own
// supervised pipeline, checkpoint directory, transport bookkeeping and
// health state.  The design goal is fault containment, not raw speed:
//
//  * Bulkheads — every supervisor call is exception-contained; a tenant
//    whose pipeline throws, whose retrain rolls back, or whose checkpoint
//    rots is quarantined or degraded *individually* and the rest of the
//    fleet never observes it.
//  * Transport hardening — wire decode errors are attributed to the
//    claimed tenant and quarantine it past a threshold; per-tenant
//    sequence numbers drop duplicate chunks (exactly-once scoring under
//    at-least-once delivery) and count gaps from reordered/lost chunks.
//  * Revival — a quarantined tenant is revived after a frame-counted
//    backoff from its per-tenant checkpoint directory (last-good fallback
//    when the newest checkpoint is corrupt), a bounded number of times;
//    past the budget it is evicted for good.
//
// Determinism: supervisors run in lockstep mode on a virtual clock that
// advances with the tenant's own accepted-frame count, and all dedup /
// quarantine decisions happen at ingest() in arrival order.  A
// fleet run is therefore a pure function of the per-tenant input
// sequences — per-tenant fingerprints are bit-identical across repeated
// runs AND across shard counts and threading modes, which is what the
// chaos harness (tests/test_fleet_chaos.cpp) asserts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "dsp/trace.hpp"
#include "fleet/wire.hpp"
#include "runtime/supervisor.hpp"

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace fleet {

/// Tenant lifecycle.  kActive and kDegraded are serving states (degraded
/// = impaired but scoring: a retrain rollback landed, or the tenant was
/// revived from a last-good checkpoint); kQuarantined drops
/// frames while awaiting revival; kEvicted and kDrained are terminal.
enum class TenantState {
  kActive,
  kDegraded,
  kQuarantined,
  kEvicted,
  kDrained,
};

const char* to_string(TenantState state);

/// Wire-transport bookkeeping, per tenant.
struct TransportStats {
  std::uint64_t frames = 0;             // decoded frames attributed here
  std::uint64_t duplicates_dropped = 0; // seq below the expected cursor
  std::uint64_t gaps_detected = 0;      // missing seqs skipped over
  std::uint64_t decode_errors = 0;      // corrupt chunks claiming this id
};

/// Per-tenant defaults applied at register_tenant().
struct TenantConfig {
  /// Supervisor template.  checkpoint_dir is overwritten with the
  /// tenant's own directory under FleetConfig::checkpoint_root.  For the
  /// determinism contract, keep lockstep=true: a lockstep supervisor
  /// scores inline and never reads pipeline.num_workers.
  runtime::SupervisorConfig supervisor;
  /// Wire decode errors attributed to a tenant before it is quarantined.
  /// 0 disables wire-triggered quarantine.
  std::size_t quarantine_decode_errors = 8;
  /// Revival attempts before a quarantined tenant is evicted.
  std::uint32_t revive_max_attempts = 2;
  /// Frames offered to the quarantined tenant before a revival attempt.
  std::uint64_t revive_backoff_frames = 64;
};

struct FleetConfig {
  std::size_t num_shards = 4;
  /// true: one worker thread per shard drains the per-tenant queues.
  /// false: ingest() routes synchronously on the caller's thread (the
  /// chaos harness's reference mode).  Per-tenant results are
  /// bit-identical either way; see the determinism note above.
  bool threaded = false;
  /// Root of the directory-per-tenant checkpoint layout; "" disables
  /// checkpointing fleet-wide.
  std::string checkpoint_root;
  TenantConfig tenant;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Why ingest() did not forward a frame (kAccepted means it did).
enum class IngestResult {
  kAccepted,
  kUnknownTenant,
  kUnavailable,         // quarantined / evicted / drained
  kQueueFull,           // threaded-mode backstop
  kFinished,            // service already drained
};

const char* to_string(IngestResult result);

struct TenantSnapshot {
  std::string id;
  std::size_t shard = 0;
  TenantState state = TenantState::kActive;
  std::string reason;
  runtime::HealthState health = runtime::HealthState::kHealthy;
  TransportStats transport;
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_dropped_unavailable = 0;
  std::uint64_t frames_dropped_queue_full = 0;
  std::uint32_t revive_attempts = 0;
  std::uint64_t generations = 1;  // supervisor incarnations
  bool recovered_last_good = false;
  /// Chained FNV fold of every supervisor generation's fingerprint.
  std::uint64_t fingerprint = 0;
  /// Supervisor stats accumulated across generations (+ live).
  runtime::SupervisorStats supervisor;
};

struct FleetStats {
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t dropped_unavailable = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t unknown_tenant_frames = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t wire_unattributed_errors = 0;
  std::uint64_t wire_duplicates = 0;
  std::uint64_t wire_gaps = 0;
  std::uint64_t tenants_registered = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t revivals = 0;
  std::uint64_t evictions = 0;
};

/// Filesystem-safe per-tenant checkpoint directory under `root`: the id
/// with non-[A-Za-z0-9._-] bytes replaced by '_', suffixed with the
/// CRC-32 of the raw id so distinct ids never collide after
/// sanitization ("a/0" and "a_0" map to different directories).
std::string tenant_checkpoint_dir(const std::string& root,
                                  const std::string& tenant_id);

/// FNV-1a shard pin for a tenant id.
std::size_t shard_of(const std::string& tenant_id, std::size_t num_shards);

class FleetService {
 public:
  explicit FleetService(FleetConfig config);
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Registers a tenant with its trained model.  Returns false (with a
  /// diagnostic) on duplicate id, empty id, or after finish().
  bool register_tenant(const std::string& id, vprofile::Model model,
                       std::string* error = nullptr);

  /// Same, with a per-tenant supervisor config overriding the template
  /// (checkpoint_dir is still replaced with the tenant's own directory).
  /// The chaos harness uses this to aim fault plans at specific tenants.
  bool register_tenant(const std::string& id, vprofile::Model model,
                       const runtime::SupervisorConfig& supervisor,
                       std::string* error = nullptr);

  /// Offers one trace to a tenant.  Applies the availability and queue
  /// checks in arrival order, then routes to the tenant's shard (inline
  /// when not threaded).  Thread-safe.
  IngestResult ingest(const std::string& tenant_id, dsp::Trace trace);

  /// Applies one decoded wire event: frames go through seq dedup/gap
  /// tracking and then ingest(); decode errors are attributed to the
  /// claimed tenant and can quarantine it.  Takes the event by value so
  /// a caller that moves it in hands the decoded trace over without a
  /// copy.  Thread-safe.
  IngestResult handle_wire_event(wire::Decoder::Event event);

  /// Finishes one tenant's supervisor (terminal; further frames are
  /// dropped as kUnavailable).  The wire kDrain frame routes here.
  void drain_tenant(const std::string& tenant_id);

  /// Drains every tenant and stops the shard threads.  Idempotent.
  void finish();

  std::optional<TenantSnapshot> tenant(const std::string& id) const;
  /// Every tenant, sorted by id (deterministic order).
  std::vector<TenantSnapshot> tenants() const;
  FleetStats stats() const;

  /// Fold of every tenant's fingerprint in sorted-id order — the whole-
  /// fleet equivalence check.  Deterministic fields only.
  std::uint64_t fingerprint() const;

  /// Deterministic JSON for /statusz: aggregate stats plus the per-tenant
  /// table (sorted by id, no wall-clock fields) — byte-stable across
  /// runs, shard counts and threading modes.
  std::string statusz_json() const;

  const FleetConfig& config() const { return config_; }

 private:
  struct Tenant;
  struct Shard;

  /// Commands executed on the tenant's shard (inline when not threaded).
  struct Command {
    enum class Kind { kFrame, kQuarantine, kRevive, kDrain };
    Kind kind = Kind::kFrame;
    Tenant* tenant = nullptr;
    dsp::Trace trace;
    std::string reason;
  };

  /// Bookkeeping decision made under mu_ at ingest time, plus the
  /// commands to dispatch once the lock is released.
  struct AdmitOutcome {
    IngestResult result = IngestResult::kUnavailable;
    bool enqueue = false;  // forward the frame to the tenant's shard
    bool revive = false;   // dispatch a revival attempt
  };
  AdmitOutcome admit_locked(Tenant& tenant);
  void dispatch(Command&& cmd);
  void execute(Command&& cmd);
  void shard_loop(Shard& shard);

  // Tenant operations; run on the owning shard, never under mu_ while
  // calling into the supervisor.
  void run_frame(Tenant& tenant, dsp::Trace&& trace);
  void apply_quarantine(Tenant& tenant, const std::string& reason);
  void apply_revive(Tenant& tenant);
  void apply_drain(Tenant& tenant);
  /// Folds the live supervisor's stats/fingerprint into the tenant
  /// accumulators and destroys it.  Exception-contained.
  void retire_supervisor_locked(Tenant& tenant);
  void update_health_locked(Tenant& tenant);
  void set_state_locked(Tenant& tenant, TenantState state,
                        const std::string& reason);

  TenantSnapshot snapshot_locked(const Tenant& tenant) const;

  FleetConfig config_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool finished_ = false;
  FleetStats stats_;

  struct Instruments {
    obs::Counter* ingested = nullptr;
    obs::Counter* wire_frames = nullptr;
    obs::Counter* wire_errors = nullptr;
    obs::Counter* quarantines = nullptr;
    obs::Counter* revivals = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* active = nullptr;
  } instruments_;
};

}  // namespace fleet
