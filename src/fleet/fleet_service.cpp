#include "fleet/fleet_service.hpp"

#include <cstdio>
#include <utility>

#include "core/fnv1a.hpp"
#include "io/checksum.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace fleet {

namespace {

using vprofile::fnv1a;
using vprofile::fnv1a_u64;
using vprofile::kFnv1aOffset;

/// Virtual nanoseconds per accepted frame on a tenant's supervision
/// clock: evidence records are stamped with frame counts, not wall time.
constexpr std::uint64_t kTickNsPerFrame = 1'000'000;

/// Pending frames per tenant in threaded mode; beyond this the frame is
/// dropped and counted (the backstop bulkhead, not the governor).
constexpr std::size_t kTenantQueueCapacity = 1024;

bool is_serving(TenantState state) {
  return state == TenantState::kActive || state == TenantState::kDegraded;
}

void accumulate(runtime::SupervisorStats& into,
                const runtime::SupervisorStats& add) {
  into.frames_submitted += add.frames_submitted;
  into.frames_handled += add.frames_handled;
  into.worker_errors += add.worker_errors;
  into.drift_alarms += add.drift_alarms;
  into.candidates_started += add.candidates_started;
  into.promotions += add.promotions;
  into.rollbacks += add.rollbacks;
  into.checkpoints_committed += add.checkpoints_committed;
  into.gate.accepted += add.gate.accepted;
  into.gate.rejected_verdict += add.gate.rejected_verdict;
  into.gate.rejected_margin += add.gate.rejected_margin;
  into.gate.refused_by_updater += add.gate.refused_by_updater;
}

std::int64_t state_gauge_value(TenantState state) {
  return static_cast<std::int64_t>(state);
}

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
  if (comma) out += ',';
}

void append_kv_str(std::string& out, const char* key, const std::string& value,
                   bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += obs::json_quote(value);
  if (comma) out += ',';
}

std::string hex_fingerprint(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

const char* to_string(TenantState state) {
  switch (state) {
    case TenantState::kActive:
      return "active";
    case TenantState::kDegraded:
      return "degraded";
    case TenantState::kQuarantined:
      return "quarantined";
    case TenantState::kEvicted:
      return "evicted";
    case TenantState::kDrained:
      return "drained";
  }
  return "unknown";
}

const char* to_string(IngestResult result) {
  switch (result) {
    case IngestResult::kAccepted:
      return "accepted";
    case IngestResult::kShedGovernor:
      return "shed_governor";
    case IngestResult::kRejectedAdmission:
      return "rejected_admission";
    case IngestResult::kUnknownTenant:
      return "unknown_tenant";
    case IngestResult::kUnavailable:
      return "unavailable";
    case IngestResult::kQueueFull:
      return "queue_full";
    case IngestResult::kFinished:
      return "finished";
  }
  return "unknown";
}

std::string tenant_checkpoint_dir(const std::string& root,
                                  const std::string& tenant_id) {
  std::string dir = root;
  if (!dir.empty() && dir.back() != '/') dir += '/';
  for (const char c : tenant_id) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    dir += safe ? c : '_';
  }
  // CRC suffix keeps sanitized collisions ("a/0" vs "a_0") apart.
  char buf[16];
  std::snprintf(buf, sizeof(buf), "-%08x", io::crc32(tenant_id));
  dir += buf;
  return dir;
}

std::size_t shard_of(const std::string& tenant_id, std::size_t num_shards) {
  if (num_shards == 0) return 0;
  return static_cast<std::size_t>(
      fnv1a(kFnv1aOffset, tenant_id.data(), tenant_id.size()) % num_shards);
}

struct FleetService::Tenant {
  std::string id;
  std::size_t shard = 0;
  TenantState state = TenantState::kActive;
  std::string reason = "registered";
  runtime::HealthState health = runtime::HealthState::kHealthy;

  std::optional<vprofile::Model> initial_model;  // revival fallback
  runtime::SupervisorConfig sup_config;
  std::unique_ptr<runtime::Supervisor> sup;

  TransportStats transport;
  std::uint64_t next_wire_seq = 0;

  std::uint64_t frames_offered = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_dropped_unavailable = 0;
  std::uint64_t frames_dropped_queue_full = 0;
  std::uint64_t pending = 0;  // enqueued, not yet executed

  std::uint64_t window_id = 0;
  std::uint64_t window_count = 0;

  std::uint32_t revive_attempts = 0;
  std::uint64_t quarantined_at_offer = 0;
  bool revive_pending = false;
  bool quarantine_pending = false;
  bool drain_pending = false;
  bool recovered_last_good = false;

  /// Per-generation virtual clock, in accepted frames.
  std::uint64_t clock_frames = 0;
  std::uint64_t generations = 1;
  /// Fold of finished generations' fingerprints.
  std::uint64_t fingerprint_chain = kFnv1aOffset;
  runtime::SupervisorStats acc_stats;  // finished generations

  obs::Counter* frames_metric = nullptr;
  obs::Gauge* state_metric = nullptr;
};

struct FleetService::Shard {
  std::size_t index = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Command> queue;
  bool stop = false;
  std::thread worker;
};

FleetService::FleetService(FleetConfig config) : config_(std::move(config)) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  if (config_.metrics != nullptr) {
    auto* m = config_.metrics;
    instruments_.ingested = m->counter("fleet_frames_ingested_total");
    instruments_.shed = m->counter("fleet_frames_shed_total");
    instruments_.admission_rejected =
        m->counter("fleet_admission_rejected_total");
    instruments_.wire_frames = m->counter("fleet_wire_frames_total");
    instruments_.wire_errors = m->counter("fleet_wire_errors_total");
    instruments_.quarantines = m->counter("fleet_quarantines_total");
    instruments_.revivals = m->counter("fleet_revivals_total");
    instruments_.evictions = m->counter("fleet_evictions_total");
    instruments_.active =
        m->gauge("fleet_tenants_active");  // vprofile-lint: allow(metric-name)
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
  if (config_.threaded) {
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, s = shard.get()] { shard_loop(*s); });
    }
  }
}

FleetService::~FleetService() { finish(); }

bool FleetService::register_tenant(const std::string& id, vprofile::Model model,
                                   std::string* error) {
  return register_tenant(id, std::move(model), config_.tenant.supervisor,
                         error);
}

bool FleetService::register_tenant(const std::string& id, vprofile::Model model,
                                   const runtime::SupervisorConfig& supervisor,
                                   std::string* error) {
  auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (id.empty()) return fail("empty tenant id");
  if (id.size() > wire::kMaxTenantBytes) return fail("tenant id too long");

  auto tenant = std::make_unique<Tenant>();
  tenant->id = id;
  tenant->shard = shard_of(id, config_.num_shards);
  tenant->initial_model = model;
  tenant->sup_config = supervisor;
  tenant->sup_config.checkpoint_dir =
      config_.checkpoint_root.empty()
          ? std::string()
          : tenant_checkpoint_dir(config_.checkpoint_root, id);
  try {
    tenant->sup = std::make_unique<runtime::Supervisor>(std::move(model),
                                                        tenant->sup_config);
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("supervisor construction failed: ") + e.what();
    }
    return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return fail("fleet already finished");
  if (tenants_.count(id) != 0) return fail("duplicate tenant id");
  if (config_.metrics != nullptr) {
    const obs::Labels labels = {{"tenant", id}};
    tenant->frames_metric =
        config_.metrics->counter("fleet_tenant_frames_total", labels);
    auto* m = config_.metrics;
    tenant->state_metric =
        m->gauge("fleet_tenant_state", labels);  // vprofile-lint: allow(metric-name)
    tenant->state_metric->set(state_gauge_value(tenant->state));
  }
  ++stats_.tenants_registered;
  if (instruments_.active != nullptr) instruments_.active->add(1);
  tenants_.emplace(id, std::move(tenant));
  return true;
}

FleetService::AdmitOutcome FleetService::admit_locked(Tenant& tenant) {
  AdmitOutcome out;
  ++stats_.frames_offered;
  ++tenant.frames_offered;

  if (!is_serving(tenant.state)) {
    ++tenant.frames_dropped_unavailable;
    ++stats_.dropped_unavailable;
    out.result = IngestResult::kUnavailable;
    if (tenant.state == TenantState::kQuarantined && !tenant.revive_pending &&
        tenant.frames_offered - tenant.quarantined_at_offer >=
            config_.tenant.revive_backoff_frames) {
      if (tenant.revive_attempts >= config_.tenant.revive_max_attempts) {
        set_state_locked(tenant, TenantState::kEvicted,
                         "revival budget exhausted");
        ++stats_.evictions;
        if (instruments_.evictions != nullptr) instruments_.evictions->add(1);
      } else {
        ++tenant.revive_attempts;
        tenant.revive_pending = true;
        out.revive = true;
      }
    }
    return out;
  }

  // Fleet-level admission governor: a hard cap on accepted frames per
  // window of offers, whoever they belong to.
  if (config_.admission_window != 0) {
    const std::uint64_t wid =
        (stats_.frames_offered - 1) / config_.admission_window;
    if (wid != admission_window_id_) {
      admission_window_id_ = wid;
      admission_window_count_ = 0;
    }
    ++admission_window_count_;
    if (admission_window_count_ > config_.admission_quota) {
      ++stats_.admission_rejected;
      if (instruments_.admission_rejected != nullptr) {
        instruments_.admission_rejected->add(1);
      }
      out.result = IngestResult::kRejectedAdmission;
      return out;
    }
  }

  // Per-tenant governor: a flooding tenant sheds its own excess while its
  // neighbours keep their quota.  The window is keyed on the fleet offer
  // counter, so the decision depends only on the arrival sequence.
  if (config_.tenant.governor_window != 0) {
    const std::uint64_t wid =
        (stats_.frames_offered - 1) / config_.tenant.governor_window;
    if (wid != tenant.window_id) {
      tenant.window_id = wid;
      tenant.window_count = 0;
    }
    ++tenant.window_count;
    if (tenant.window_count > config_.tenant.governor_quota) {
      ++tenant.frames_shed;
      ++stats_.frames_shed;
      if (instruments_.shed != nullptr) instruments_.shed->add(1);
      out.result = IngestResult::kShedGovernor;
      return out;
    }
  }

  if (config_.threaded && tenant.pending >= kTenantQueueCapacity) {
    ++tenant.frames_dropped_queue_full;
    ++stats_.dropped_queue_full;
    out.result = IngestResult::kQueueFull;
    return out;
  }

  ++tenant.frames_accepted;
  ++stats_.frames_accepted;
  ++tenant.pending;
  if (instruments_.ingested != nullptr) instruments_.ingested->add(1);
  if (tenant.frames_metric != nullptr) tenant.frames_metric->add(1);
  out.result = IngestResult::kAccepted;
  out.enqueue = true;
  return out;
}

IngestResult FleetService::ingest(const std::string& tenant_id,
                                  dsp::Trace trace) {
  Tenant* tenant = nullptr;
  AdmitOutcome out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return IngestResult::kFinished;
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) {
      ++stats_.unknown_tenant_frames;
      return IngestResult::kUnknownTenant;
    }
    tenant = it->second.get();
    out = admit_locked(*tenant);
  }
  if (out.revive) {
    Command cmd;
    cmd.kind = Command::Kind::kRevive;
    cmd.tenant = tenant;
    dispatch(std::move(cmd));
  }
  if (out.enqueue) {
    Command cmd;
    cmd.kind = Command::Kind::kFrame;
    cmd.tenant = tenant;
    cmd.trace = std::move(trace);
    dispatch(std::move(cmd));
  }
  return out.result;
}

IngestResult FleetService::handle_wire_event(wire::Decoder::Event event) {
  if (event.error != wire::DecodeError::kNone) {
    Tenant* quarantinee = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (finished_) return IngestResult::kFinished;
      ++stats_.wire_errors;
      if (instruments_.wire_errors != nullptr) instruments_.wire_errors->add(1);
      auto it = event.claimed_tenant.empty()
                    ? tenants_.end()
                    : tenants_.find(event.claimed_tenant);
      if (it == tenants_.end()) {
        ++stats_.wire_unattributed_errors;
        return IngestResult::kAccepted;
      }
      Tenant& tenant = *it->second;
      ++tenant.transport.decode_errors;
      if (config_.tenant.quarantine_decode_errors != 0 &&
          tenant.transport.decode_errors >=
              config_.tenant.quarantine_decode_errors &&
          is_serving(tenant.state) && !tenant.quarantine_pending) {
        tenant.quarantine_pending = true;
        quarantinee = &tenant;
      }
    }
    if (quarantinee != nullptr) {
      Command cmd;
      cmd.kind = Command::Kind::kQuarantine;
      cmd.tenant = quarantinee;
      cmd.reason = std::string("wire corruption: ") + to_string(event.error);
      dispatch(std::move(cmd));
    }
    return IngestResult::kAccepted;
  }

  wire::Frame& frame = *event.frame;
  if (frame.kind == wire::FrameKind::kDrain) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.wire_frames;
      if (instruments_.wire_frames != nullptr) instruments_.wire_frames->add(1);
    }
    drain_tenant(frame.tenant);
    return IngestResult::kAccepted;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return IngestResult::kFinished;
    ++stats_.wire_frames;
    if (instruments_.wire_frames != nullptr) instruments_.wire_frames->add(1);
    auto it = tenants_.find(frame.tenant);
    if (it == tenants_.end()) {
      ++stats_.unknown_tenant_frames;
      return IngestResult::kUnknownTenant;
    }
    Tenant& tenant = *it->second;
    // At-least-once transports redeliver: a seq below the cursor is a
    // duplicate and must not be scored twice (dedup keeps the scored
    // stream — and thus the fingerprint — identical to exactly-once
    // delivery).  A seq above the cursor is lost/reordered traffic.
    if (frame.seq < tenant.next_wire_seq) {
      ++tenant.transport.duplicates_dropped;
      ++stats_.wire_duplicates;
      return IngestResult::kAccepted;
    }
    if (frame.seq > tenant.next_wire_seq) {
      const std::uint64_t missing = frame.seq - tenant.next_wire_seq;
      tenant.transport.gaps_detected += missing;
      stats_.wire_gaps += missing;
    }
    tenant.next_wire_seq = frame.seq + 1;
    ++tenant.transport.frames;
  }
  return ingest(frame.tenant, std::move(frame.samples));
}

void FleetService::drain_tenant(const std::string& tenant_id) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) return;
    Tenant& t = *it->second;
    if (t.drain_pending || t.state == TenantState::kDrained ||
        t.state == TenantState::kEvicted) {
      return;
    }
    t.drain_pending = true;
    tenant = &t;
  }
  Command cmd;
  cmd.kind = Command::Kind::kDrain;
  cmd.tenant = tenant;
  dispatch(std::move(cmd));
}

void FleetService::finish() {
  std::vector<Tenant*> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    finished_ = true;
    for (auto& [id, tenant] : tenants_) {
      if (!tenant->drain_pending && tenant->state != TenantState::kDrained &&
          tenant->state != TenantState::kEvicted) {
        tenant->drain_pending = true;
        pending.push_back(tenant.get());
      }
    }
  }
  for (Tenant* tenant : pending) {
    Command cmd;
    cmd.kind = Command::Kind::kDrain;
    cmd.tenant = tenant;
    dispatch(std::move(cmd));
  }
  if (config_.threaded) {
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->stop = true;
      }
      shard->cv.notify_all();
    }
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
}

void FleetService::dispatch(Command&& cmd) {
  if (!config_.threaded) {
    execute(std::move(cmd));
    return;
  }
  Shard& shard = *shards_[cmd.tenant->shard];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // After stop the queue is no longer drained; execute inline (finish()
    // has joined or is joining the worker, so commands stay serialized).
    if (shard.stop) {
      execute(std::move(cmd));
      return;
    }
    shard.queue.push_back(std::move(cmd));
  }
  shard.cv.notify_one();
}

void FleetService::shard_loop(Shard& shard) {
  for (;;) {
    Command cmd;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock,
                    [&shard] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) {
        if (shard.stop) return;
        continue;
      }
      cmd = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    execute(std::move(cmd));
  }
}

void FleetService::execute(Command&& cmd) {
  switch (cmd.kind) {
    case Command::Kind::kFrame:
      run_frame(*cmd.tenant, std::move(cmd.trace));
      break;
    case Command::Kind::kQuarantine:
      apply_quarantine(*cmd.tenant, cmd.reason);
      break;
    case Command::Kind::kRevive:
      apply_revive(*cmd.tenant);
      break;
    case Command::Kind::kDrain:
      apply_drain(*cmd.tenant);
      break;
  }
}

void FleetService::run_frame(Tenant& tenant, dsp::Trace&& trace) {
  runtime::Supervisor* sup = nullptr;
  std::uint64_t now_ns = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant.pending > 0) --tenant.pending;
    if (!is_serving(tenant.state) || tenant.sup == nullptr) {
      ++tenant.frames_dropped_unavailable;
      ++stats_.dropped_unavailable;
      return;
    }
    sup = tenant.sup.get();
    ++tenant.clock_frames;
    now_ns = tenant.clock_frames * kTickNsPerFrame;
  }
  // The supervisor call happens outside mu_; per-tenant serialization is
  // the shard's job (commands for one tenant always land on its shard).
  try {
    sup->submit(std::move(trace));
    sup->poll(now_ns);
  } catch (const std::exception& e) {
    apply_quarantine(tenant, std::string("supervisor exception: ") + e.what());
    return;
  } catch (...) {
    apply_quarantine(tenant, "supervisor exception");
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  update_health_locked(tenant);
}

void FleetService::apply_quarantine(Tenant& tenant, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  tenant.quarantine_pending = false;
  if (tenant.state == TenantState::kEvicted ||
      tenant.state == TenantState::kDrained) {
    retire_supervisor_locked(tenant);
    return;
  }
  if (tenant.state == TenantState::kQuarantined) return;
  retire_supervisor_locked(tenant);
  set_state_locked(tenant, TenantState::kQuarantined, reason);
  tenant.quarantined_at_offer = tenant.frames_offered;
  ++stats_.quarantines;
  if (instruments_.quarantines != nullptr) instruments_.quarantines->add(1);
}

void FleetService::apply_revive(Tenant& tenant) {
  runtime::SupervisorConfig sup_config;
  std::optional<vprofile::Model> fallback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant.state != TenantState::kQuarantined) {
      tenant.revive_pending = false;
      return;
    }
    sup_config = tenant.sup_config;
    fallback = tenant.initial_model;
  }

  // Checkpoint load and supervisor construction are slow; do them off the
  // service lock.  Only this tenant's shard executes revive commands, so
  // nobody else can be installing a supervisor concurrently.
  std::optional<vprofile::Model> model;
  bool recovered = false;
  std::string how = "revived from initial model";
  if (!sup_config.checkpoint_dir.empty()) {
    runtime::CheckpointStore store(sup_config.checkpoint_dir);
    if (store.has_checkpoint()) {
      auto loaded = store.load();
      if (loaded.model.has_value()) {
        model = std::move(loaded.model);
        recovered = loaded.recovered_last_good;
        how = recovered ? "revived from last-good checkpoint"
                        : "revived from checkpoint";
      }
    }
  }
  if (!model.has_value()) model = std::move(fallback);

  std::unique_ptr<runtime::Supervisor> sup;
  try {
    sup = std::make_unique<runtime::Supervisor>(std::move(*model), sup_config);
  } catch (...) {
    // Failed revival burns the attempt but keeps the tenant quarantined;
    // the next backoff expiry tries again (or evicts).
    std::lock_guard<std::mutex> lock(mu_);
    tenant.revive_pending = false;
    tenant.quarantined_at_offer = tenant.frames_offered;
    return;
  }

  std::lock_guard<std::mutex> lock(mu_);
  tenant.sup = std::move(sup);
  tenant.clock_frames = 0;
  ++tenant.generations;
  tenant.revive_pending = false;
  tenant.recovered_last_good = tenant.recovered_last_good || recovered;
  tenant.health = runtime::HealthState::kHealthy;
  set_state_locked(tenant,
                   recovered ? TenantState::kDegraded : TenantState::kActive,
                   how);
  ++stats_.revivals;
  if (instruments_.revivals != nullptr) instruments_.revivals->add(1);
}

void FleetService::apply_drain(Tenant& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  tenant.drain_pending = false;
  if (tenant.state == TenantState::kEvicted ||
      tenant.state == TenantState::kDrained) {
    return;
  }
  retire_supervisor_locked(tenant);
  set_state_locked(tenant, TenantState::kDrained, "drained");
}

void FleetService::retire_supervisor_locked(Tenant& tenant) {
  if (tenant.sup == nullptr) return;
  try {
    tenant.sup->finish();
  } catch (...) {
    // A supervisor that cannot even finish still gets retired; the
    // bulkhead's whole point is that this never propagates.
  }
  try {
    accumulate(tenant.acc_stats, tenant.sup->stats());
    tenant.fingerprint_chain =
        fnv1a_u64(tenant.fingerprint_chain, tenant.sup->fingerprint());
    tenant.health = tenant.sup->health();
  } catch (...) {
  }
  tenant.sup.reset();
}

void FleetService::update_health_locked(Tenant& tenant) {
  if (tenant.sup == nullptr) return;
  tenant.health = tenant.sup->health();
  if (tenant.health == runtime::HealthState::kDegraded &&
      tenant.state == TenantState::kActive) {
    set_state_locked(tenant, TenantState::kDegraded, "supervisor degraded");
  }
}

void FleetService::set_state_locked(Tenant& tenant, TenantState state,
                                    const std::string& reason) {
  const bool was_serving = is_serving(tenant.state);
  tenant.state = state;
  tenant.reason = reason;
  if (tenant.state_metric != nullptr) {
    tenant.state_metric->set(state_gauge_value(state));
  }
  const bool now_serving = is_serving(state);
  if (instruments_.active != nullptr && was_serving != now_serving) {
    instruments_.active->add(now_serving ? 1 : -1);
  }
}

TenantSnapshot FleetService::snapshot_locked(const Tenant& tenant) const {
  TenantSnapshot snap;
  snap.id = tenant.id;
  snap.shard = tenant.shard;
  snap.state = tenant.state;
  snap.reason = tenant.reason;
  snap.health = tenant.health;
  snap.transport = tenant.transport;
  snap.frames_offered = tenant.frames_offered;
  snap.frames_accepted = tenant.frames_accepted;
  snap.frames_shed = tenant.frames_shed;
  snap.frames_dropped_unavailable = tenant.frames_dropped_unavailable;
  snap.frames_dropped_queue_full = tenant.frames_dropped_queue_full;
  snap.revive_attempts = tenant.revive_attempts;
  snap.generations = tenant.generations;
  snap.recovered_last_good = tenant.recovered_last_good;
  snap.fingerprint = tenant.fingerprint_chain;
  snap.supervisor = tenant.acc_stats;
  if (tenant.sup != nullptr) {
    snap.health = tenant.sup->health();
    accumulate(snap.supervisor, tenant.sup->stats());
    snap.fingerprint = fnv1a_u64(snap.fingerprint, tenant.sup->fingerprint());
  }
  return snap;
}

std::optional<TenantSnapshot> FleetService::tenant(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

std::vector<TenantSnapshot> FleetService::tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    out.push_back(snapshot_locked(*tenant));
  }
  return out;
}

FleetStats FleetService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t FleetService::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = kFnv1aOffset;
  for (const auto& [id, tenant] : tenants_) {
    h = fnv1a(h, id.data(), id.size());
    const TenantSnapshot snap = snapshot_locked(*tenant);
    h = fnv1a_u64(h, snap.fingerprint);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(snap.state));
  }
  return h;
}

std::string FleetService::statusz_json() const {
  std::vector<TenantSnapshot> snaps;
  FleetStats fleet;
  std::uint64_t fleet_fp = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fleet = stats_;
    snaps.reserve(tenants_.size());
    std::uint64_t h = kFnv1aOffset;
    for (const auto& [id, tenant] : tenants_) {
      const TenantSnapshot snap = snapshot_locked(*tenant);
      h = fnv1a(h, id.data(), id.size());
      h = fnv1a_u64(h, snap.fingerprint);
      h = fnv1a_u64(h, static_cast<std::uint64_t>(snap.state));
      snaps.push_back(snap);
    }
    fleet_fp = h;
  }

  std::string out = "{\"fleet\":{";
  append_kv(out, "tenants", static_cast<std::uint64_t>(snaps.size()));
  append_kv(out, "frames_offered", fleet.frames_offered);
  append_kv(out, "frames_accepted", fleet.frames_accepted);
  append_kv(out, "frames_shed", fleet.frames_shed);
  append_kv(out, "admission_rejected", fleet.admission_rejected);
  append_kv(out, "dropped_unavailable", fleet.dropped_unavailable);
  append_kv(out, "dropped_queue_full", fleet.dropped_queue_full);
  append_kv(out, "unknown_tenant_frames", fleet.unknown_tenant_frames);
  append_kv(out, "wire_frames", fleet.wire_frames);
  append_kv(out, "wire_errors", fleet.wire_errors);
  append_kv(out, "wire_unattributed_errors", fleet.wire_unattributed_errors);
  append_kv(out, "wire_duplicates", fleet.wire_duplicates);
  append_kv(out, "wire_gaps", fleet.wire_gaps);
  append_kv(out, "quarantines", fleet.quarantines);
  append_kv(out, "revivals", fleet.revivals);
  append_kv(out, "evictions", fleet.evictions);
  append_kv_str(out, "fingerprint", hex_fingerprint(fleet_fp), false);
  out += "},\"tenants\":[";
  bool first = true;
  for (const TenantSnapshot& snap : snaps) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv_str(out, "id", snap.id);
    append_kv(out, "shard", static_cast<std::uint64_t>(snap.shard));
    append_kv_str(out, "state", to_string(snap.state));
    append_kv_str(out, "reason", snap.reason);
    append_kv_str(out, "health", runtime::to_string(snap.health));
    append_kv(out, "frames_offered", snap.frames_offered);
    append_kv(out, "frames_accepted", snap.frames_accepted);
    append_kv(out, "frames_shed", snap.frames_shed);
    append_kv(out, "dropped_unavailable", snap.frames_dropped_unavailable);
    append_kv(out, "dropped_queue_full", snap.frames_dropped_queue_full);
    out += "\"wire\":{";
    append_kv(out, "frames", snap.transport.frames);
    append_kv(out, "duplicates_dropped", snap.transport.duplicates_dropped);
    append_kv(out, "gaps_detected", snap.transport.gaps_detected);
    append_kv(out, "decode_errors", snap.transport.decode_errors, false);
    out += "},";
    append_kv(out, "revive_attempts", snap.revive_attempts);
    append_kv(out, "generations", snap.generations);
    out += "\"recovered_last_good\":";
    out += snap.recovered_last_good ? "true," : "false,";
    append_kv_str(out, "fingerprint", hex_fingerprint(snap.fingerprint));
    out += "\"supervisor\":{";
    append_kv(out, "frames_handled", snap.supervisor.frames_handled);
    append_kv(out, "drift_alarms", snap.supervisor.drift_alarms);
    append_kv(out, "promotions", snap.supervisor.promotions);
    append_kv(out, "rollbacks", snap.supervisor.rollbacks);
    append_kv(out, "checkpoints_committed", snap.supervisor.checkpoints_committed,
              false);
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace fleet
