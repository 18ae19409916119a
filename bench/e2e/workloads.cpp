#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/batch_scorer.hpp"
#include "core/extractor.hpp"
#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"
#include "io/checksum.hpp"
#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/supervisor.hpp"
#include "sim/scenario.hpp"
#include "stats/rng.hpp"
#include "traffic.hpp"

namespace e2e {
namespace {

/// IngestServer's recv size: the wire workload feeds its decoder in
/// reads of this many bytes.
constexpr std::size_t kReadBytes = 16 * 1024;
/// Set-ups per run: at least kSetupMinRepeats and at least kSetupMinSeconds
/// in total; setup_s is their median.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr double kSetupMinSeconds = 1.0;

/// One chunk in this many is re-sent, and one is preceded by garbage.
constexpr std::uint64_t kInjectPeriod = 64;
/// A 250 kb/s J1939 bus saturates at about this many frames per second.
constexpr double kBusFramesPerSecond = 2000.0;
/// Throughput is the median over windows of this length, so a short
/// stall or a burst of host steal time moves one window, not the metric.
constexpr std::uint64_t kWindowNs = 500'000'000;
/// Frames the backlog replay hands over at a time: one full batch.  It
/// refills once the whole window has come back.
constexpr std::uint64_t kReplayWindow = 8;
/// Submit timestamps kept for the backlog workload's latency; far more
/// than the replay ever has in flight.
constexpr std::size_t kStampSlots = 1u << 13;
/// Frames per tenant that carry a fresh flight recorder past its
/// max_incidents (32 bundles of 16 post-trigger frames each, with
/// anomalies frequent enough to re-arm at once), into the suppressed
/// steady state a long-running tenant lives in.
constexpr std::uint64_t kObsWarmupPerTenant = 1024;
/// Untimed warm-up before the timed loop, at least this long.
constexpr double kWarmupSeconds = 1.0;
/// Training captures per profile, as vprofile_fleet trains its tenants.
constexpr std::size_t kTrainCaptures = 1500;

/// The traced run writes this many spans, its first, to the Chrome trace;
/// every span recorded feeds the ledger.
constexpr std::size_t kChromeSpans = 1024;
/// CPUs the worker sweep of the traced run spreads over: one per worker
/// of its widest arm, taken from the end of the allowed mask.
constexpr std::size_t kSweepCpus = 3;

/// Root span of one frame in the traced loop; every call the generator
/// makes for that frame is its child.
constexpr const char* kFrameSpan = "e2e.frame";

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }
std::uint64_t s_to_ns(double s) { return static_cast<std::uint64_t>(s * 1e9); }
double per(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

// ---------------------------------------------------------------------------
// Workload shapes.

struct Shape {
  std::vector<ProfileSpec> profiles;
  std::size_t tenants = 0;    // serving workloads; 0 for backlog_replay
  bool wire = false;          // wire_uplink: encode -> decode -> fleet
  bool observability = false; // metrics + flight recorder on the tenants
  std::uint64_t warmup_frames_per_tenant = 0;  // on top of kWarmupSeconds
};

/// `a` vehicle-A profiles a0.., then `b` vehicle-B profiles b0...
std::vector<ProfileSpec> vehicles(std::size_t a, std::size_t b, std::size_t pool) {
  std::vector<ProfileSpec> specs;
  for (std::size_t i = 0; i < a + b; ++i) {
    ProfileSpec s;
    s.vehicle_b = i >= a;
    s.name = std::string(s.vehicle_b ? "b" : "a") + std::to_string(s.vehicle_b ? i - a : i);
    s.train = kTrainCaptures;
    s.pool = pool;
    s.hijack = 0.05;
    specs.push_back(s);
  }
  return specs;
}

Shape shape_of(const std::string& workload) {
  Shape shape;
  if (workload == "wire_uplink") {
    // 5 A + 3 B, not 4 + 4: an A chunk is twice a B chunk, so verdict
    // latency has one mode per vehicle, and with an even split the median
    // would fall in the gap between them and jump from run to run.
    shape.profiles = vehicles(5, 3, 32);
    shape.tenants = 8;
    shape.wire = true;
  } else if (workload == "fleet_fanout") {
    shape.profiles = vehicles(4, 4, 64);
    shape.tenants = 64;
    shape.observability = true;
    shape.warmup_frames_per_tenant = kObsWarmupPerTenant;
  } else if (workload == "backlog_replay") {
    ProfileSpec s;
    s.name = "bus";
    s.vehicle_b = true;
    s.train = kTrainCaptures;
    s.pool = 512;
    s.hijack = 0.05;
    s.harsh = true;
    shape.profiles = {s};
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  return shape;
}

// ---------------------------------------------------------------------------
// Serving workloads: a sync FleetService with lockstep supervisors.

struct TenantCursor {
  std::string id;
  std::size_t profile = 0;
  std::size_t offset = 0;   // first pool index this tenant sends
  std::uint64_t sent = 0;   // unique frames sent to this tenant
};

struct FleetRig {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<fleet::FleetService> service;
  std::vector<TenantCursor> tenants;
  std::uint64_t next = 0;      // unique frames sent, round-robin position
  std::uint64_t rejected = 0;  // ingest results other than kAccepted
};

struct SetupTiming {
  double setup_s = 0.0;
  double register_s = 0.0;
};

/// Tenant t serves profile t % P; the tenants sharing a profile start at
/// evenly spaced pool offsets so they are never in step.
std::vector<TenantCursor> tenant_layout(std::size_t count,
                                        const std::vector<Profile>& profiles) {
  std::vector<TenantCursor> tenants(count);
  const std::size_t np = profiles.size();
  const std::size_t per_profile = (count + np - 1) / np;
  for (std::size_t t = 0; t < count; ++t) {
    char id[32];
    std::snprintf(id, sizeof(id), "truck-%02zu", t);
    tenants[t].id = id;
    tenants[t].profile = t % np;
    tenants[t].offset =
        (t / np) * (profiles[t % np].pool.size() / per_profile);
  }
  return tenants;
}

runtime::SupervisorConfig tenant_supervisor(const Profile& profile,
                                            obs::MetricsRegistry* metrics) {
  runtime::SupervisorConfig sc;
  sc.lockstep = true;
  sc.online_update = false;  // the oracle scores against the trained model
  sc.pipeline.num_workers = 1;
  sc.pipeline.detection = profile.detection;
  sc.pipeline.metrics = metrics;
  sc.flight_recorder = metrics != nullptr;  // in-memory: no incident_dir
  return sc;
}

/// Builds a fresh service and registers every tenant; the timed part is
/// construction through the last register_tenant, including each
/// tenant's extraction and training.
SetupTiming build_fleet(FleetRig& rig, const std::vector<Profile>& profiles,
                        std::size_t tenants, bool observability) {
  rig.service.reset();
  rig.registry.reset();
  rig.tenants = tenant_layout(tenants, profiles);
  rig.next = 0;
  rig.rejected = 0;
  if (observability) rig.registry = std::make_unique<obs::MetricsRegistry>();

  fleet::FleetConfig fc;
  fc.num_shards = 4;
  fc.threaded = false;
  fc.metrics = rig.registry.get();
  fc.tenant.supervisor = tenant_supervisor(profiles.front(), fc.metrics);

  SetupTiming timing;
  const std::uint64_t t0 = now_ns();
  rig.service = std::make_unique<fleet::FleetService>(fc);
  std::uint64_t register_ns = 0;
  for (const TenantCursor& tenant : rig.tenants) {
    const Profile& profile = profiles[tenant.profile];
    vprofile::Model model = train_tenant_model(profile);
    const runtime::SupervisorConfig sc =
        tenant_supervisor(profile, rig.registry.get());
    std::string error;
    const std::uint64_t r0 = now_ns();
    if (!rig.service->register_tenant(tenant.id, std::move(model), sc,
                                      &error)) {
      throw std::runtime_error("register_tenant " + tenant.id + ": " + error);
    }
    register_ns += now_ns() - r0;
  }
  timing.setup_s = ns_to_s(now_ns() - t0);
  timing.register_s = ns_to_s(register_ns);
  return timing;
}

/// One closed-loop frame through FleetService::ingest.
void ingest_step(FleetRig& rig, const std::vector<Profile>& profiles,
                 SpanBuffer* spans, LatencyHistogram* latency) {
  const std::uint64_t k = rig.next++;
  TenantCursor& tenant = rig.tenants[k % rig.tenants.size()];
  const Profile& profile = profiles[tenant.profile];
  const std::uint64_t g0 = now_ns();
  dsp::Trace trace = profile.pool[(tenant.offset + tenant.sent) %
                                  profile.pool.size()];
  const std::uint64_t t0 = now_ns();
  const fleet::IngestResult r = rig.service->ingest(tenant.id, std::move(trace));
  const std::uint64_t t1 = now_ns();
  ++tenant.sent;
  if (r != fleet::IngestResult::kAccepted) ++rig.rejected;
  if (latency != nullptr) latency->add(t1 - t0);
  if (spans != nullptr) {
    spans->record(k, "gen", kFrameSpan, g0, t0);
    spans->record(k, "fleet.ingest", kFrameSpan, t0, t1);
    spans->record(k, kFrameSpan, nullptr, g0, now_ns());
  }
}

// ---------------------------------------------------------------------------
// wire_uplink: encode -> 16 KiB reads into one Decoder -> handle_wire_event.

struct WireRig {
  FleetRig fleet;
  fleet::wire::Decoder decoder;
  std::vector<fleet::wire::Frame> frames;  // per tenant; samples swapped in
  std::uint64_t dup_phase = 0;
  std::uint64_t garbage_phase = 0;
  std::optional<stats::Rng> rng;  // garbage lengths and bytes
  std::string garbage;
  std::uint64_t dups = 0;
  std::uint64_t garbage_runs = 0;
  std::uint64_t garbage_bytes = 0;
  std::uint64_t encoded_bytes = 0;
};

void reset_wire(WireRig& w, units::Seed64 seed) {
  w.decoder = fleet::wire::Decoder{};
  w.frames.assign(w.fleet.tenants.size(), fleet::wire::Frame{});
  for (std::size_t t = 0; t < w.frames.size(); ++t) {
    w.frames[t].tenant = w.fleet.tenants[t].id;
  }
  w.rng.emplace(sim::derive_stream_seed(seed, "wire/inject"));
  w.dup_phase = w.rng->below(kInjectPeriod);
  w.garbage_phase = w.rng->below(kInjectPeriod);
  w.dups = w.garbage_runs = w.garbage_bytes = w.encoded_bytes = 0;
}

/// A garbage run that holds no 'V', so it can never fake a magic: the
/// decoder skips exactly these bytes in one resync.
void make_garbage(WireRig& w) {
  const std::size_t len = 16 + static_cast<std::size_t>(w.rng->below(497));
  w.garbage.resize(len);
  for (char& c : w.garbage) {
    std::uint64_t b = w.rng->below(255);
    if (b >= 'V') ++b;
    c = static_cast<char>(static_cast<unsigned char>(b));
  }
  ++w.garbage_runs;
  w.garbage_bytes += len;
}

/// Feeds bytes in IngestServer-sized reads; after each read, decodes and
/// handles every available event, as IngestServer does.
void pump(WireRig& w, const char* data, std::size_t len, std::uint64_t frame,
          SpanBuffer* spans, std::uint64_t* verdict_ns) {
  for (std::size_t off = 0; off < len; off += kReadBytes) {
    const std::size_t n = std::min(kReadBytes, len - off);
    std::uint64_t a = now_ns();
    w.decoder.feed(data + off, n);
    for (;;) {
      std::optional<fleet::wire::Decoder::Event> ev = w.decoder.next();
      const std::uint64_t b = now_ns();
      if (spans != nullptr) spans->record(frame, "wire.decode", kFrameSpan, a, b);
      if (!ev) break;
      const fleet::IngestResult r = w.fleet.service->handle_wire_event(*ev);
      a = now_ns();
      if (spans != nullptr) spans->record(frame, "fleet.ingest", kFrameSpan, b, a);
      if (r != fleet::IngestResult::kAccepted) ++w.fleet.rejected;
      if (ev->frame.has_value() && verdict_ns != nullptr) *verdict_ns = a;
    }
  }
}

void wire_step(WireRig& w, std::vector<Profile>& profiles, SpanBuffer* spans,
               LatencyHistogram* latency) {
  FleetRig& rig = w.fleet;
  const std::uint64_t k = rig.next++;
  const std::size_t t = k % rig.tenants.size();
  TenantCursor& tenant = rig.tenants[t];
  Profile& profile = profiles[tenant.profile];
  dsp::Trace& slot =
      profile.pool[(tenant.offset + tenant.sent) % profile.pool.size()];
  fleet::wire::Frame& frame = w.frames[t];
  const bool garbage = k % kInjectPeriod == w.garbage_phase;
  const bool dup = k % kInjectPeriod == w.dup_phase;

  const std::uint64_t g0 = now_ns();
  frame.seq = tenant.sent;
  frame.samples.swap(slot);  // the pool trace, without a copy
  if (garbage) make_garbage(w);
  const std::uint64_t t0 = now_ns();
  const std::string chunk = fleet::wire::encode(frame);
  const std::uint64_t t1 = now_ns();
  frame.samples.swap(slot);
  ++tenant.sent;
  w.encoded_bytes += chunk.size();
  if (spans != nullptr) {
    spans->record(k, "gen", kFrameSpan, g0, t0);
    spans->record(k, "wire.encode", kFrameSpan, t0, t1);
  }

  std::uint64_t verdict_ns = t1;
  if (garbage) pump(w, w.garbage.data(), w.garbage.size(), k, spans, nullptr);
  pump(w, chunk.data(), chunk.size(), k, spans, &verdict_ns);
  if (latency != nullptr) latency->add(verdict_ns - t0);
  if (dup) {
    pump(w, chunk.data(), chunk.size(), k, spans, nullptr);
    ++w.dups;
  }
  if (spans != nullptr) spans->record(k, kFrameSpan, nullptr, g0, now_ns());
}

// ---------------------------------------------------------------------------
// backlog_replay: a free-running Supervisor, fed one batch at a time.

/// While alive, the calling thread — and every thread it starts — runs in
/// the SCHED_BATCH class (no privilege needed); restores SCHED_OTHER.
class BatchClassThreads {
 public:
  BatchClassThreads() { set(SCHED_BATCH); }
  ~BatchClassThreads() { set(SCHED_OTHER); }
  BatchClassThreads(const BatchClassThreads&) = delete;
  BatchClassThreads& operator=(const BatchClassThreads&) = delete;

 private:
  static void set(int policy) {
    sched_param param{};
    sched_setscheduler(0, policy, &param);
  }
};

class BacklogRig {
 public:
  explicit BacklogRig(const Profile& profile)
      : profile_(profile), stamps_(kStampSlots) {}

  /// Trains the model and constructs the supervisor; returns seconds.
  double build() {
    sup_.reset();
    handled_.store(0);
    mismatches_ = 0;
    latency_ = LatencyHistogram{};
    sent_.store(0);
    rejected_ = 0;
    const std::uint64_t t0 = now_ns();
    vprofile::Model model = train_tenant_model(profile_);
    {
      // The pipeline's worker inherits SCHED_BATCH, the scheduling class
      // for throughput work: its wake-up does not preempt the replay, so a
      // refill reaches the queue whole and is scored as one full batch.
      const BatchClassThreads batch_class;
      sup_ = std::make_unique<runtime::Supervisor>(
          std::move(model), config(),
          [this](const pipeline::FrameResult& r) { on_result(r); });
    }
    return ns_to_s(now_ns() - t0);
  }

  void step(SpanBuffer* spans) {
    const std::uint64_t k = sent_.load(std::memory_order_relaxed);
    const std::uint64_t f0 = now_ns();
    if (k - handled() >= kReplayWindow) {
      const std::uint64_t w0 = now_ns();
      std::uint64_t h = handled();
      while (k != h) {
        handled_.wait(h, std::memory_order_acquire);
        h = handled();
      }
      if (spans != nullptr) spans->record(k, "replay.wait", kFrameSpan, w0, now_ns());
    }
    const std::uint64_t g0 = now_ns();
    dsp::Trace trace = profile_.pool[k % profile_.pool.size()];
    const std::uint64_t t0 = now_ns();
    stamps_[k % kStampSlots].store(t0, std::memory_order_release);
    // Counted before the submit, so the sink of this frame sees it.
    sent_.store(k + 1, std::memory_order_release);
    if (!sup_->submit(std::move(trace))) ++rejected_;
    const std::uint64_t t1 = now_ns();
    if (spans != nullptr) {
      spans->record(k, "gen", kFrameSpan, g0, t0);
      spans->record(k, "runtime.submit", kFrameSpan, t0, t1);
      spans->record(k, kFrameSpan, nullptr, f0, now_ns());
    }
  }

  /// Latency is recorded for frames [lo, hi) by submission index.
  void set_latency_window(std::uint64_t lo, std::uint64_t hi) {
    window_lo_.store(lo);
    window_hi_.store(hi);
  }

  std::uint64_t handled() const { return handled_.load(std::memory_order_acquire); }
  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t rejected() const { return rejected_; }
  /// Valid after finish().
  std::uint64_t mismatches() const { return mismatches_; }
  const LatencyHistogram& latency() const { return latency_; }
  runtime::Supervisor& supervisor() { return *sup_; }

  void finish() { sup_->finish(); }

 private:
  runtime::SupervisorConfig config() const {
    runtime::SupervisorConfig sc;
    sc.lockstep = false;
    sc.online_update = false;
    // One worker: on one CPU a second one only races the first for each
    // refill, which made throughput modal (see README.md).
    sc.pipeline.num_workers = 1;
    sc.pipeline.batch_size = 8;
    sc.pipeline.block_when_full = true;
    sc.pipeline.detection = profile_.detection;
    return sc;
  }

  // Runs on the pipeline's serialized, in-order result path.
  void on_result(const pipeline::FrameResult& r) {
    const Outcome& want = profile_.oracle[r.seq % profile_.oracle.size()];
    if (!(outcome_of(r) == want)) ++mismatches_;
    if (r.seq >= window_lo_.load(std::memory_order_relaxed) &&
        r.seq < window_hi_.load(std::memory_order_relaxed)) {
      const std::uint64_t t0 =
          stamps_[r.seq % kStampSlots].load(std::memory_order_acquire);
      latency_.add(now_ns() - t0);
    }
    // Wake the replay once its whole window has come back.
    const std::uint64_t h = handled_.fetch_add(1, std::memory_order_release) + 1;
    if (sent_.load(std::memory_order_acquire) == h) {
      handled_.notify_one();
    }
  }

  const Profile& profile_;
  std::vector<std::atomic<std::uint64_t>> stamps_;
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> window_lo_{0};
  std::atomic<std::uint64_t> window_hi_{0};
  std::uint64_t mismatches_ = 0;
  LatencyHistogram latency_;
  std::atomic<std::uint64_t> sent_{0};
  std::uint64_t rejected_ = 0;
  std::unique_ptr<runtime::Supervisor> sup_;
};

// ---------------------------------------------------------------------------
// The correctness gate, after the timed loops.

struct RunCheck {
  std::uint64_t sent = 0;     // unique frames handed to the first layer
  std::uint64_t handled = 0;  // verdicts
  std::uint64_t matched = 0;  // verdicts equal to the oracle's
  std::uint64_t worker_errors = 0;
  std::uint64_t restarts = 0;
  std::uint64_t accepted = 0;  // FleetStats, serving workloads
  std::uint64_t dropped = 0;
  OutcomeCounts outcomes;
  std::vector<std::string> gate;  // every failed check; empty when correct
};

/// Drains the service and checks every tenant's fingerprint against the
/// one folded from oracle outcomes over the frames it was sent.
RunCheck check_serving(FleetRig& rig, const WireRig* wire,
                       const std::vector<Profile>& profiles,
                       std::vector<std::string>* notes) {
  rig.service->finish();
  RunCheck r;
  std::uint64_t tenants_mismatched = 0;
  for (const TenantCursor& tenant : rig.tenants) {
    const Profile& profile = profiles[tenant.profile];
    const std::optional<fleet::TenantSnapshot> snap =
        rig.service->tenant(tenant.id);
    r.sent += tenant.sent;
    count_outcomes(profile, tenant.offset, tenant.sent, &r.outcomes);
    if (!snap) {
      ++tenants_mismatched;
      continue;
    }
    r.handled += snap->supervisor.frames_handled;
    r.worker_errors += snap->supervisor.worker_errors;
    r.restarts += snap->supervisor.restarts;
    const std::uint64_t expected =
        oracle_tenant_fingerprint(profile, tenant.offset, tenant.sent);
    if (snap->fingerprint == expected &&
        snap->supervisor.frames_handled == tenant.sent) {
      r.matched += tenant.sent;
    } else {
      ++tenants_mismatched;
    }
  }
  const fleet::FleetStats stats = rig.service->stats();
  r.accepted = stats.frames_accepted;
  r.dropped = stats.frames_offered - stats.frames_accepted;
  if (tenants_mismatched != 0) {
    r.gate.push_back(std::to_string(tenants_mismatched) +
                     " tenant fingerprints differ from the oracle");
  }
  if (rig.rejected != 0) {
    r.gate.push_back(std::to_string(rig.rejected) + " ingest calls not accepted");
  }
  if (wire != nullptr) {
    const auto& ds = wire->decoder.stats();
    const bool exact = ds.resyncs == wire->garbage_runs &&
                       ds.errors == wire->garbage_runs &&
                       ds.bytes_skipped == wire->garbage_bytes &&
                       stats.wire_duplicates == wire->dups &&
                       stats.wire_unattributed_errors == wire->garbage_runs &&
                       stats.wire_frames == r.sent + wire->dups;
    if (!exact) r.gate.push_back("wire reject counters differ from the injected counts");
    notes->push_back(
        "wire injected: " + std::to_string(wire->garbage_runs) + " garbage runs (" +
        std::to_string(wire->garbage_bytes) + " bytes), " + std::to_string(wire->dups) +
        " duplicate chunks; decoder resyncs " + std::to_string(ds.resyncs) +
        ", skipped " + std::to_string(ds.bytes_skipped) + ", errors " +
        std::to_string(ds.errors) + "; fleet duplicates " +
        std::to_string(stats.wire_duplicates));
  }
  return r;
}

RunCheck check_backlog(BacklogRig& backlog, const Profile& profile) {
  backlog.finish();
  RunCheck r;
  r.sent = backlog.sent();
  r.handled = backlog.handled();
  r.matched = r.handled - backlog.mismatches();
  const runtime::SupervisorStats ss = backlog.supervisor().stats();
  r.worker_errors = ss.worker_errors;
  r.restarts = ss.restarts;
  count_outcomes(profile, 0, r.sent, &r.outcomes);
  if (backlog.mismatches() != 0) {
    r.gate.push_back(std::to_string(backlog.mismatches()) +
                     " verdicts differ from the oracle");
  }
  if (backlog.rejected() != 0) {
    r.gate.push_back(std::to_string(backlog.rejected()) + " submits refused");
  }
  return r;
}

// ---------------------------------------------------------------------------
// Timed loops.

struct LoopResult {
  std::uint64_t frames = 0;  // verdicts delivered in the loop
  std::uint64_t sent = 0;    // unique frames handed to the first layer
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;
  LatencyHistogram latency;
  /// Per throughput window: verdicts per wall second, per CPU second.
  std::vector<double> window_per_wall_s;
  std::vector<double> window_per_cpu_s;
};

/// Runs `step` for `seconds` (or until the span buffer fills), closing a
/// throughput window every kWindowNs.  `delivered` counts verdicts so far.
template <typename Step, typename Delivered>
LoopResult timed_loop(double seconds, const SpanBuffer* spans, Step step,
                      Delivered delivered) {
  LoopResult res;
  const std::uint64_t d0 = delivered();
  const ProcSample p0 = sample_proc();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + s_to_ns(seconds);
  std::uint64_t t1 = t0;
  std::uint64_t wt = t0, wd = d0;
  ProcSample wp = p0;
  auto close_window = [&](std::uint64_t t) {
    const std::uint64_t d = delivered();
    const ProcSample p = sample_proc();
    res.window_per_wall_s.push_back(static_cast<double>(d - wd) / ns_to_s(t - wt));
    res.window_per_cpu_s.push_back(static_cast<double>(d - wd) / (p.cpu_s - wp.cpu_s));
    wt = t;
    wd = d;
    wp = p;
  };
  do {
    step(&res);
    ++res.sent;
    t1 = now_ns();
    if (t1 - wt >= kWindowNs) close_window(t1);
  } while (t1 < deadline && (spans == nullptr || !spans->full()));
  if (res.window_per_wall_s.empty() || t1 - wt >= kWindowNs / 2) close_window(t1);
  const std::uint64_t d1 = delivered();
  const ProcSample p1 = sample_proc();
  res.frames = d1 - d0;
  res.wall_s = ns_to_s(t1 - t0);
  res.cpu_s = p1.cpu_s - p0.cpu_s;
  res.ctx_switches = p1.ctx_switches - p0.ctx_switches;
  return res;
}

// ---------------------------------------------------------------------------
// Isolation arms of the traced run: each lower layer alone, over the
// workload's own frames in the workload's own order — the same tenant
// layout, each tenant with its own model copy, frames round-robin over
// tenants — so wake-up pattern and working set match the timed loop.

struct Arms {
  double extract_ns = 0.0;
  double detect_oracle_ns = 0.0;
  double score_b1_ns = 0.0;
  double score_b8_ns = 0.0;
  bool scorer_matches_oracle = true;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double crc_ns = 0.0;
  double bytes_per_frame = 0.0;
  double roundtrip_ns = 0.0;
  double submit_ns = 0.0;
  double fps_w[3] = {0.0, 0.0, 0.0};
  std::vector<int> sweep_cpus;
  double obs_on_p50_us = 0.0;
  double obs_off_p50_us = 0.0;
};

struct ArmTenant {
  std::string id;
  const Profile* profile = nullptr;
  std::size_t offset = 0;
  std::uint64_t next = 0;
  std::unique_ptr<vprofile::Model> model;

  const dsp::Trace& trace() {
    return profile->pool[(offset + next++) % profile->pool.size()];
  }
};

std::vector<ArmTenant> arm_tenants(const std::vector<Profile>& profiles,
                                   std::size_t count) {
  std::vector<ArmTenant> out;
  for (const TenantCursor& c : tenant_layout(count, profiles)) {
    ArmTenant t;
    t.id = c.id;
    t.profile = &profiles[c.profile];
    t.offset = c.offset;
    t.model = std::make_unique<vprofile::Model>(*t.profile->model);
    out.push_back(std::move(t));
  }
  return out;
}

/// A tenant supervisor whose flight recorder starts where a long-running
/// one ends up: past max_incidents, every trigger suppressed.  The timed
/// loop reaches that state by warming up; a short arm could not.
runtime::SupervisorConfig arm_supervisor(const Profile& profile,
                                         obs::MetricsRegistry* metrics) {
  runtime::SupervisorConfig sc = tenant_supervisor(profile, metrics);
  sc.recorder.max_incidents = 0;
  return sc;
}

double sink_accumulator = 0.0;  // keeps timed results observable

bool same_outcome(const vprofile::Detection& a, const vprofile::Detection& b) {
  return a.verdict == b.verdict &&
         std::bit_cast<std::uint64_t>(a.min_distance) ==
             std::bit_cast<std::uint64_t>(b.min_distance);
}

/// extract_edge_set, detect (the oracle) and BatchScorer at batch 1 and 8,
/// each timed per call; batch-8 groups a tenant's own consecutive frames.
void core_arm(std::vector<ArmTenant>& tenants, double budget_s, Arms* arms) {
  const std::size_t n = tenants.size();
  std::vector<std::unique_ptr<vprofile::ScoringPlan>> plans;
  std::vector<std::unique_ptr<vprofile::BatchScorer>> scorers;
  std::vector<std::vector<vprofile::EdgeSet>> pending(n);
  for (ArmTenant& t : tenants) {
    plans.push_back(std::make_unique<vprofile::ScoringPlan>(*t.model));
    scorers.push_back(std::make_unique<vprofile::BatchScorer>(*plans.back()));
  }
  std::uint64_t extract_ns = 0, extract_n = 0, detect_ns = 0, b1_ns = 0,
                scored_n = 0, b8_ns = 0, b8_n = 0;
  vprofile::Detection out[8];
  const vprofile::EdgeSet* ptrs[8];
  const std::uint64_t deadline = now_ns() + s_to_ns(budget_s);
  do {
    for (std::size_t ti = 0; ti < n; ++ti) {
      ArmTenant& t = tenants[ti];
      const vprofile::DetectionConfig& dc = t.profile->detection;
      const dsp::Trace& trace = t.trace();
      std::uint64_t a = now_ns();
      std::optional<vprofile::EdgeSet> es =
          vprofile::extract_edge_set(trace, t.model->extraction());
      std::uint64_t b = now_ns();
      extract_ns += b - a;
      ++extract_n;
      if (!es) continue;

      a = now_ns();
      const vprofile::Detection oracle = vprofile::detect(*t.model, *es, dc);
      b = now_ns();
      detect_ns += b - a;

      ptrs[0] = &*es;
      a = now_ns();
      scorers[ti]->detect(ptrs, 1, dc, out);
      b = now_ns();
      b1_ns += b - a;
      ++scored_n;
      if (!same_outcome(oracle, out[0])) arms->scorer_matches_oracle = false;
      sink_accumulator += out[0].min_distance;

      pending[ti].push_back(std::move(*es));
      if (pending[ti].size() == 8) {
        for (std::size_t i = 0; i < 8; ++i) ptrs[i] = &pending[ti][i];
        a = now_ns();
        scorers[ti]->detect(ptrs, 8, dc, out);
        b = now_ns();
        b8_ns += b - a;
        b8_n += 8;
        sink_accumulator += out[7].min_distance;
        pending[ti].clear();
      }
    }
  } while (now_ns() < deadline);
  arms->extract_ns = per(static_cast<double>(extract_ns), extract_n);
  arms->detect_oracle_ns = per(static_cast<double>(detect_ns), scored_n);
  arms->score_b1_ns = per(static_cast<double>(b1_ns), scored_n);
  arms->score_b8_ns = per(static_cast<double>(b8_ns), b8_n);
}

/// wire::encode, Decoder feed+next in 16 KiB reads, and io::crc32 over
/// the same payload bytes.
void wire_arm(std::vector<ArmTenant>& tenants, double budget_s, Arms* arms) {
  std::uint64_t encode_ns = 0, decode_ns = 0, crc_ns = 0, frames = 0,
                bytes = 0, decoded = 0;
  std::uint32_t crc_sink = 0;
  fleet::wire::Decoder decoder;
  fleet::wire::Frame frame;
  const std::uint64_t deadline = now_ns() + s_to_ns(budget_s);
  do {
    for (ArmTenant& t : tenants) {
      frame.tenant = t.id;
      frame.seq = t.next;
      frame.samples = t.trace();  // untimed copy; encode reads a Frame
      std::uint64_t a = now_ns();
      const std::string chunk = fleet::wire::encode(frame);
      std::uint64_t b = now_ns();
      encode_ns += b - a;
      a = now_ns();
      for (std::size_t off = 0; off < chunk.size(); off += kReadBytes) {
        decoder.feed(chunk.data() + off, std::min(kReadBytes, chunk.size() - off));
        while (const auto ev = decoder.next()) {
          if (ev->frame.has_value()) ++decoded;
        }
      }
      b = now_ns();
      decode_ns += b - a;
      // The payload sits between the 8-byte header and the 4-byte CRC.
      a = now_ns();
      crc_sink ^= io::crc32(chunk.data() + 8, chunk.size() - 12);
      b = now_ns();
      crc_ns += b - a;
      bytes += chunk.size();
      ++frames;
    }
  } while (now_ns() < deadline);
  sink_accumulator += static_cast<double>(crc_sink % 2) +
                      static_cast<double>(decoded % 2);
  arms->encode_ns = per(static_cast<double>(encode_ns), frames);
  arms->decode_ns = per(static_cast<double>(decode_ns), frames);
  arms->crc_ns = per(static_cast<double>(crc_ns), frames);
  arms->bytes_per_frame = per(static_cast<double>(bytes), frames);
}

/// Per tenant, a standalone DetectionPipeline (1 worker, one frame in
/// flight: submit -> sink) and a standalone lockstep Supervisor
/// (Supervisor::submit).  The two are subtracted from each other in the
/// ledger, so they alternate frame by frame under the same conditions.
void handoff_arms(std::vector<ArmTenant>& tenants, bool observability,
                  double budget_s, Arms* arms) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = observability ? &registry : nullptr;
  struct Handoff {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  } handoff;
  std::vector<std::unique_ptr<pipeline::DetectionPipeline>> pipes;
  std::vector<std::unique_ptr<runtime::Supervisor>> sups;
  for (ArmTenant& t : tenants) {
    pipes.push_back(std::make_unique<pipeline::DetectionPipeline>(
        *t.model, tenant_supervisor(*t.profile, metrics).pipeline,
        [&handoff](pipeline::FrameResult&&) {
          {
            std::lock_guard<std::mutex> lock(handoff.mu);
            handoff.done = true;
          }
          handoff.cv.notify_one();
        }));
    sups.push_back(std::make_unique<runtime::Supervisor>(
        *t.model, arm_supervisor(*t.profile, metrics)));
  }
  std::uint64_t roundtrip_ns = 0, submit_ns = 0, n = 0;
  for (int phase = 0; phase < 2; ++phase) {  // warm-up pass, then timed
    const std::uint64_t deadline =
        now_ns() + s_to_ns(phase == 0 ? 0.0 : budget_s);
    do {
      for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
        dsp::Trace trace = tenants[ti].trace();
        {
          std::lock_guard<std::mutex> lock(handoff.mu);
          handoff.done = false;
        }
        const std::uint64_t a = now_ns();
        pipes[ti]->submit(std::move(trace));
        {
          std::unique_lock<std::mutex> lock(handoff.mu);
          handoff.cv.wait(lock, [&handoff] { return handoff.done; });
        }
        const std::uint64_t b = now_ns();
        trace = tenants[ti].trace();
        const std::uint64_t c = now_ns();
        sups[ti]->submit(std::move(trace));
        const std::uint64_t d = now_ns();
        if (phase == 1) {
          roundtrip_ns += b - a;
          submit_ns += d - c;
          ++n;
        }
      }
    } while (now_ns() < deadline);
  }
  for (auto& pipe : pipes) pipe->finish();
  for (auto& sup : sups) sup->finish();
  arms->roundtrip_ns = per(static_cast<double>(roundtrip_ns), n);
  arms->submit_ns = per(static_cast<double>(submit_ns), n);
}

/// Free-running DetectionPipeline at 1, 2 and 3 workers over the first
/// tenant's frames (batch 8, blocking queue), drained inside the window.
/// The workload runs on one CPU; for the sweep the generator and the
/// workers it starts spread over kSweepCpus CPUs, so the workers can run
/// in parallel.  The workload's pin is restored afterwards.
void sweep_arm(std::vector<ArmTenant>& tenants, const CpuSet& cpus,
               double budget_s, Arms* arms) {
  const std::size_t n = std::min(kSweepCpus, cpus.allowed.size());
  arms->sweep_cpus.assign(cpus.allowed.end() - static_cast<std::ptrdiff_t>(n),
                          cpus.allowed.end());
  if (!pin_thread_to(arms->sweep_cpus)) {
    throw std::runtime_error("sched_setaffinity for the worker sweep failed");
  }
  ArmTenant& t = tenants.front();
  for (std::size_t w = 1; w <= 3; ++w) {
    pipeline::PipelineConfig pc;
    pc.num_workers = w;
    pc.batch_size = 8;
    pc.block_when_full = true;
    pc.detection = t.profile->detection;
    std::atomic<std::uint64_t> done{0};
    pipeline::DetectionPipeline pipe(*t.model, pc,
                                     [&done](pipeline::FrameResult&&) {
                                       done.fetch_add(1, std::memory_order_relaxed);
                                     });
    for (int i = 0; i < 512; ++i) pipe.submit(t.trace());
    while (done.load() < 512) std::this_thread::yield();
    std::uint64_t sent = 0;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + s_to_ns(budget_s / 3.0);
    do {
      pipe.submit(t.trace());
      ++sent;
    } while (now_ns() < deadline);
    pipe.finish();
    arms->fps_w[w - 1] = static_cast<double>(sent) / ns_to_s(now_ns() - t0);
  }
  if (!pin_thread_to(cpus.cpus)) {
    throw std::runtime_error("sched_setaffinity after the worker sweep failed");
  }
}

/// Serving tenants on direct ingest with observability on and off, in
/// alternating blocks; p50 of each.  `on` is the workload's own (warm)
/// rig when it already runs with observability, else null.
void obs_arm(FleetRig* on, const std::vector<Profile>& profiles,
             std::size_t tenants, double budget_s, Arms* arms) {
  FleetRig fresh_on, off;
  if (on == nullptr) {
    build_fleet(fresh_on, profiles, tenants, true);
    on = &fresh_on;
    while (on->next < kObsWarmupPerTenant * tenants) {
      ingest_step(*on, profiles, nullptr, nullptr);
    }
  }
  build_fleet(off, profiles, tenants, false);
  for (std::size_t i = 0; i < 2 * tenants; ++i) {
    ingest_step(off, profiles, nullptr, nullptr);
  }
  LatencyHistogram lat_on, lat_off;
  const std::size_t block = std::max<std::size_t>(256, 8 * tenants);
  const std::uint64_t deadline = now_ns() + s_to_ns(budget_s);
  do {
    for (std::size_t i = 0; i < block; ++i) ingest_step(*on, profiles, nullptr, &lat_on);
    for (std::size_t i = 0; i < block; ++i) ingest_step(off, profiles, nullptr, &lat_off);
  } while (now_ns() < deadline);
  arms->obs_on_p50_us = lat_on.percentile_us(0.5);
  arms->obs_off_p50_us = lat_off.percentile_us(0.5);
}

// ---------------------------------------------------------------------------
// Reporting.

struct Ledger {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> chain;  // layer self ns/frame
  double e2e_ns_per_frame = 0.0;
  double coverage = 0.0;
  std::string uncovered;
};

void add(std::vector<Metric>& m, const char* name, const char* unit, double v) {
  m.push_back({name, unit, v});
}

std::string ledger_json(const Options& o, const CpuSet& cpus,
                        const Arms& arms, const Ledger& ledger,
                        const LoopResult& untraced, const LoopResult& traced) {
  std::string out = "{\n  \"workload\": \"" + o.workload + "\",\n";
  out += "  \"seed\": " + std::to_string(o.seed) + ",\n";
  out += "  \"seconds\": " + json_number(o.seconds) + ",\n";
  out += "  \"cpus\": [" + cpus.describe() + "],\n";
  out += "  \"sweep_cpus\": [" + describe_cpus(arms.sweep_cpus) + "],\n";
  out += "  \"untraced\": {\"frames\": " + std::to_string(untraced.frames) +
         ", \"wall_s\": " + json_number(untraced.wall_s) + "},\n";
  out += "  \"traced\": {\"frames\": " + std::to_string(traced.frames) +
         ", \"wall_s\": " + json_number(traced.wall_s) + "},\n";
  out += "  \"chain_ns_per_frame\": {";
  for (std::size_t i = 0; i < ledger.chain.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::string("\"") + ledger.chain[i].first +
           "\": " + json_number(ledger.chain[i].second);
  }
  out += "},\n";
  out += "  \"e2e_ns_per_frame_traced\": " + json_number(ledger.e2e_ns_per_frame) + ",\n";
  out += "  \"coverage\": " + json_number(ledger.coverage) + ",\n";
  out += "  \"uncovered\": \"" + ledger.uncovered + "\",\n";
  out += "  \"per_layer\": {\n";
  for (std::size_t i = 0; i < ledger.metrics.size(); ++i) {
    const Metric& m = ledger.metrics[i];
    out += "    \"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}" +
           (i + 1 < ledger.metrics.size() ? ",\n" : "\n");
  }
  out += "  }\n}\n";
  return out;
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

RunReport run_workload(const Options& o, const CpuSet& cpus) {
  const Shape shape = shape_of(o.workload);
  const bool serving = shape.tenants > 0;
  const units::Seed64 seed{o.seed};
  RunReport report;
  report.notes.push_back("workload " + o.workload + " seed " +
                         std::to_string(o.seed) + " pinned to cpus " +
                         cpus.describe());

  // Traffic and oracle: synthesized and scored before anything is timed.
  const std::uint64_t g0 = now_ns();
  std::vector<Profile> profiles;
  for (const ProfileSpec& spec : shape.profiles) {
    profiles.push_back(make_profile(seed, spec));
  }
  if (o.perturb_oracle) profiles.front().oracle.front().code ^= 1;
  report.notes.push_back(fmt("traffic + oracle synthesized in %.2f s", ns_to_s(now_ns() - g0)));

  // Set-up, several times; the last one serves.
  FleetRig fleet_rig;
  WireRig wire_rig;
  std::unique_ptr<BacklogRig> backlog;
  std::vector<double> setup_s, register_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kSetupMinRepeats || setup_total_s < kSetupMinSeconds) {
    if (serving) {
      FleetRig& rig = shape.wire ? wire_rig.fleet : fleet_rig;
      const SetupTiming t =
          build_fleet(rig, profiles, shape.tenants, shape.observability);
      setup_s.push_back(t.setup_s);
      register_s.push_back(t.register_s);
      setup_total_s += t.setup_s;
    } else {
      if (!backlog) backlog = std::make_unique<BacklogRig>(profiles.front());
      setup_s.push_back(backlog->build());
      setup_total_s += setup_s.back();
    }
  }
  if (shape.wire) reset_wire(wire_rig, seed);
  bool rss_reset = false;
  if (!o.trace) {
    // The training captures are set-up input and are not needed again;
    // freeing them lets peak_rss_mb measure the serving process rather
    // than the generator's buffers.
    for (Profile& p : profiles) std::vector<dsp::Trace>().swap(p.training);
    rss_reset = reset_peak_rss();
  }
  std::size_t threads_peak = threads_now();

  auto step = [&](SpanBuffer* spans) {
    return [&, spans](LoopResult* res) {
      if (shape.wire) {
        wire_step(wire_rig, profiles, spans, &res->latency);
      } else if (serving) {
        ingest_step(fleet_rig, profiles, spans, &res->latency);
      } else {
        backlog->step(spans);
      }
    };
  };
  FleetRig& serving_rig = shape.wire ? wire_rig.fleet : fleet_rig;
  // Verdicts delivered so far: lockstep serving returns each verdict from
  // the call that sent the frame; the backlog counts its sink.
  auto delivered = [&]() -> std::uint64_t {
    return serving ? serving_rig.next : backlog->handled();
  };

  // Warm-up, untimed.
  {
    const std::uint64_t deadline = now_ns() + s_to_ns(kWarmupSeconds);
    const std::uint64_t frames = shape.warmup_frames_per_tenant * shape.tenants;
    auto warm = step(nullptr);
    LoopResult scratch;
    while (now_ns() < deadline || (serving && serving_rig.next < frames)) {
      warm(&scratch);
    }
  }

  const double loop_s = o.trace ? o.seconds / 4.0 : o.seconds;
  if (!serving) {
    backlog->set_latency_window(backlog->sent(),
                                std::numeric_limits<std::uint64_t>::max());
  }
  LoopResult untraced = timed_loop(loop_s, nullptr, step(nullptr), delivered);
  if (!serving) {
    // Close the window and let its last frames reach the sink before the
    // samples change hands.
    backlog->set_latency_window(backlog->sent() - untraced.sent, backlog->sent());
    while (backlog->handled() < backlog->sent()) std::this_thread::yield();
    untraced.latency = backlog->latency();
  }
  threads_peak = std::max(threads_peak, threads_now());

  LoopResult traced;
  std::unique_ptr<SpanBuffer> spans;
  if (o.trace) {
    const double fps = static_cast<double>(untraced.sent) / untraced.wall_s;
    const std::size_t spans_per_frame = shape.wire ? 13 : 4;
    const std::size_t capacity = std::min<std::size_t>(
        std::size_t{1} << 22,
        static_cast<std::size_t>(fps * loop_s * 1.5) * spans_per_frame + 1024);
    spans = std::make_unique<SpanBuffer>(capacity);
    traced = timed_loop(loop_s, spans.get(), step(spans.get()), delivered);
  }

  // Traced run: the isolation arms replay the same frames through each
  // lower layer on its own, before the serving stack drains.
  Arms arms;
  if (o.trace) {
    const double arm_s = o.seconds / 2.0;
    std::vector<ArmTenant> tenants =
        arm_tenants(profiles, serving ? shape.tenants : 1);
    core_arm(tenants, 0.15 * arm_s, &arms);
    wire_arm(tenants, 0.15 * arm_s, &arms);
    handoff_arms(tenants, shape.observability, 0.4 * arm_s, &arms);
    sweep_arm(tenants, cpus, 0.15 * arm_s, &arms);
    if (serving) {
      obs_arm(shape.observability ? &serving_rig : nullptr, profiles,
              shape.tenants, 0.15 * arm_s, &arms);
    }
  }

  // Drain and check every verdict against the oracle.
  RunCheck check = serving ? check_serving(serving_rig, shape.wire ? &wire_rig : nullptr,
                                           profiles, &report.notes)
                           : check_backlog(*backlog, profiles.front());
  const std::uint64_t sent = check.sent, handled = check.handled,
                      matched = check.matched;
  std::vector<std::string>& gate = check.gate;
  const std::uint64_t lost = sent > handled ? sent - handled : 0;
  if (lost != 0) gate.push_back(std::to_string(lost) + " frames without a verdict");
  const double match_ratio = per(static_cast<double>(matched), handled);
  const double loss_ratio = per(static_cast<double>(lost), sent);

  report.correct = gate.empty();
  report.attempted = sent;
  report.failed = lost + (handled - matched);
  for (const std::string& g : gate) report.notes.push_back("GATE: " + g);
  report.notes.push_back(
      "frames sent " + std::to_string(sent) + ", verdicts " + std::to_string(handled) +
      ", matching the oracle " + std::to_string(matched) + fmt(
          " (verdict_match_ratio %.6f, frame_loss_ratio %.6f)", match_ratio, loss_ratio));

  const double p50 = untraced.latency.percentile_us(0.50);
  const double p90 = untraced.latency.percentile_us(0.90);
  const double p99 = untraced.latency.percentile_us(0.99);
  report.notes.push_back(fmt("timed loop: %.0f verdicts in %.3f s over %.0f windows",
                             static_cast<double>(untraced.frames), untraced.wall_s,
                             static_cast<double>(untraced.window_per_wall_s.size())) +
                         fmt(", latency p50 %.1f us p90 %.1f us p99 %.1f us", p50, p90, p99) +
                         " over " + std::to_string(untraced.latency.count()) + " samples");
  report.notes.push_back(fmt("set-up: %.0f runs, min %.4f s, max %.4f s",
                             static_cast<double>(setup_s.size()),
                             *std::min_element(setup_s.begin(), setup_s.end()),
                             *std::max_element(setup_s.begin(), setup_s.end())));
  {
    std::string deciles = "latency deciles (us):";
    for (int d = 1; d <= 9; ++d) {
      deciles += fmt(" %.1f", untraced.latency.percentile_us(d / 10.0));
    }
    report.notes.push_back(deciles);
    std::vector<double> w = untraced.window_per_wall_s;
    std::sort(w.begin(), w.end());
    report.notes.push_back(fmt("throughput windows: min %.0f, median %.0f, max %.0f verdicts/s",
                               w.front(), median_of(w), w.back()));
  }

  if (!o.trace) {
    auto& m = report.metrics;
    add(m, "frames_per_s", "1/s", median_of(untraced.window_per_wall_s));
    add(m, "buses_per_core", "ratio",
        median_of(untraced.window_per_cpu_s) / kBusFramesPerSecond);
    add(m, "verdict_latency_p50_us", "us", p50);
    add(m, "verdict_latency_p90_us", "us", p90);
    add(m, "setup_s", "s", median_of(setup_s));
    add(m, "peak_rss_mb", "MB", peak_rss_mb());
    report.notes.push_back(rss_reset ? "peak_rss_mb covers the serving phase"
                                     : "peak_rss_mb covers the whole process "
                                       "(high-water mark reset unavailable)");
    add(m, "verdict_match_ratio", "ratio", match_ratio);
    return report;
  }

  if (!arms.scorer_matches_oracle) {
    report.correct = false;
    report.notes.push_back("GATE: BatchScorer differs from the oracle");
  }

  const std::uint64_t tf = traced.sent;
  const double gen_ns = per(static_cast<double>(spans->total_ns("gen")), tf);
  const double encode_ns = shape.wire
      ? per(static_cast<double>(spans->total_ns("wire.encode")), tf) : arms.encode_ns;
  const double decode_ns = shape.wire
      ? per(static_cast<double>(spans->total_ns("wire.decode")), tf) : arms.decode_ns;
  // backlog_replay has no fleet on its path: its fleet timings are 0.
  const double ingest_ns = serving
      ? per(static_cast<double>(spans->total_ns("fleet.ingest")), tf) : 0.0;
  const double submit_blocked_ns = serving
      ? 0.0 : per(static_cast<double>(spans->total_ns("runtime.submit")), tf);
  const double fleet_self = serving ? ingest_ns - arms.submit_ns : 0.0;
  const double runtime_self = arms.submit_ns - arms.roundtrip_ns;
  const double pipeline_self = arms.roundtrip_ns - arms.extract_ns - arms.score_b1_ns;
  const double oracle_ns = arms.detect_oracle_ns;
  const double wire_bytes = shape.wire
      ? per(static_cast<double>(wire_rig.encoded_bytes), sent) : arms.bytes_per_frame;

  Ledger ledger;
  ledger.e2e_ns_per_frame = traced.wall_s * 1e9 / static_cast<double>(tf);
  if (serving) {
    ledger.chain = {{"gen", gen_ns}};
    if (shape.wire) {
      ledger.chain.push_back({"wire.encode", encode_ns});
      ledger.chain.push_back({"wire.decode", decode_ns});
    }
    ledger.chain.push_back({"fleet.self", fleet_self});
    ledger.chain.push_back({"runtime.self", runtime_self});
    ledger.chain.push_back({"pipeline.self", pipeline_self});
    ledger.chain.push_back({"core.extract", arms.extract_ns});
    ledger.chain.push_back({"core.score_b1", arms.score_b1_ns});
  } else {
    // One CPU: while the replay waits on its window the workers run, so
    // the wait splits into their extraction, batch-8 scoring and the rest
    // of the worker side (pipeline queue and collector, supervisor sink).
    const double wait_ns = per(static_cast<double>(spans->total_ns("replay.wait")), tf);
    ledger.chain = {{"gen", gen_ns},
                    {"runtime.submit", submit_blocked_ns},
                    {"pipeline.worker_self", wait_ns - arms.extract_ns - arms.score_b8_ns},
                    {"core.extract", arms.extract_ns},
                    {"core.score_b8", arms.score_b8_ns}};
  }
  double chain_sum = 0.0;
  for (const auto& [layer, ns] : ledger.chain) chain_sum += ns;
  ledger.coverage = chain_sum / ledger.e2e_ns_per_frame;
  const double uncovered_ns = ledger.e2e_ns_per_frame - chain_sum;
  // The chain telescopes to the frame span's children, so what it leaves
  // out is the frame span's own time plus the time between frames.
  const double frame_ns = per(static_cast<double>(spans->total_ns(kFrameSpan)), tf);
  ledger.uncovered =
      fmt("%.0f ns/frame (%.1f%%) outside the chain: ", uncovered_ns,
          100.0 * uncovered_ns / ledger.e2e_ns_per_frame) +
      fmt("%.0f ns inside each frame span between its calls (clock reads, span "
          "records, cursors) and %.0f ns between frames (the timed loop's own "
          "checks)", frame_ns - chain_sum, ledger.e2e_ns_per_frame - frame_ns);
  if (ledger.coverage < 0.9 || ledger.coverage > 1.1) {
    ledger.uncovered += "; coverage outside 0.9-1.1";
  }

  auto& m = ledger.metrics;
  add(m, "wire.encode_ns_per_frame", "ns", encode_ns);
  add(m, "wire.decode_ns_per_frame", "ns", decode_ns);
  add(m, "wire.crc_ns_per_frame", "ns", arms.crc_ns);
  add(m, "wire.bytes_per_frame", "count", wire_bytes);
  add(m, "wire.resyncs_total", "count",
      shape.wire ? static_cast<double>(wire_rig.decoder.stats().resyncs) : 0.0);
  add(m, "wire.bytes_skipped_total", "count",
      shape.wire ? static_cast<double>(wire_rig.decoder.stats().bytes_skipped) : 0.0);
  add(m, "wire.errors_total", "count",
      shape.wire ? static_cast<double>(wire_rig.decoder.stats().errors) : 0.0);
  add(m, "fleet.wire_duplicates_total", "count",
      shape.wire ? static_cast<double>(wire_rig.dups) : 0.0);
  add(m, "fleet.ingest_ns_per_frame", "ns", ingest_ns);
  add(m, "fleet.self_ns_per_frame", "ns", fleet_self);
  add(m, "fleet.register_s", "s", serving ? median_of(register_s) : 0.0);
  add(m, "fleet.frames_accepted_total", "count", static_cast<double>(check.accepted));
  add(m, "fleet.frames_dropped_total", "count", static_cast<double>(check.dropped));
  add(m, "runtime.submit_ns_per_frame", "ns", arms.submit_ns);
  add(m, "runtime.self_ns_per_frame", "ns", runtime_self);
  add(m, "runtime.worker_errors_total", "count", static_cast<double>(check.worker_errors));
  add(m, "runtime.restarts_total", "count", static_cast<double>(check.restarts));
  add(m, "pipeline.roundtrip_ns_per_frame", "ns", arms.roundtrip_ns);
  add(m, "pipeline.self_ns_per_frame", "ns", pipeline_self);
  add(m, "pipeline.submit_blocked_ns_per_frame", "ns", submit_blocked_ns);
  add(m, "pipeline.frames_per_s_w1", "1/s", arms.fps_w[0]);
  add(m, "pipeline.frames_per_s_w2", "1/s", arms.fps_w[1]);
  add(m, "pipeline.frames_per_s_w3", "1/s", arms.fps_w[2]);
  add(m, "core.extract_ns_per_frame", "ns", arms.extract_ns);
  add(m, "core.score_b1_ns_per_frame", "ns", arms.score_b1_ns);
  add(m, "core.score_b8_ns_per_frame", "ns", arms.score_b8_ns);
  add(m, "core.detect_oracle_ns_per_frame", "ns", oracle_ns);
  add(m, "core.outcome_ok_total", "count", static_cast<double>(check.outcomes.ok));
  add(m, "core.outcome_anomaly_total", "count", static_cast<double>(check.outcomes.anomaly));
  add(m, "core.outcome_extract_error_total", "count",
      static_cast<double>(check.outcomes.extract_error));
  add(m, "obs.cost_ns_per_frame", "ns", (arms.obs_on_p50_us - arms.obs_off_p50_us) * 1e3);
  add(m, "obs.trace_overhead_ratio", "ratio",
      (traced.wall_s / static_cast<double>(tf)) /
          (untraced.wall_s / static_cast<double>(untraced.sent)));
  add(m, "proc.threads_peak", "count", static_cast<double>(threads_peak));
  add(m, "proc.ctx_switches_per_frame", "count",
      per(static_cast<double>(untraced.ctx_switches), untraced.frames));
  add(m, "proc.cpu_ns_per_frame", "ns", per(untraced.cpu_s * 1e9, untraced.frames));
  add(m, "gen.ns_per_frame", "ns", gen_ns);
  add(m, "ledger.coverage", "ratio", ledger.coverage);
  add(m, "ledger.uncovered_ns_per_frame", "ns", uncovered_ns);
  const std::pair<const char*, double> x_oracle[] = {
      {"wire.encode_x_oracle", encode_ns},
      {"wire.decode_x_oracle", decode_ns},
      {"wire.crc_x_oracle", arms.crc_ns},
      {"fleet.self_x_oracle", fleet_self},
      {"runtime.self_x_oracle", runtime_self},
      {"pipeline.self_x_oracle", pipeline_self},
      {"pipeline.submit_blocked_x_oracle", submit_blocked_ns},
      {"core.extract_x_oracle", arms.extract_ns},
      {"core.score_b1_x_oracle", arms.score_b1_ns},
      {"core.score_b8_x_oracle", arms.score_b8_ns},
      {"gen.self_x_oracle", gen_ns},
  };
  for (const auto& [name, ns] : x_oracle) add(m, name, "ratio", ns / oracle_ns);
  add(m, "frame_loss_ratio", "ratio", loss_ratio);
  add(m, "e2e.verdict_latency_p99_us", "us", p99);
  add(m, "e2e.ns_per_frame_traced", "ns", ledger.e2e_ns_per_frame);
  report.metrics = m;

  report.notes.push_back(fmt("ledger coverage %.3f of %.0f ns/frame traced", ledger.coverage,
                             ledger.e2e_ns_per_frame) + "; " + ledger.uncovered);
  if (!o.out_dir.empty()) {
    const std::string base = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
    const bool ok =
        write_text_file(base + ".ledger.json",
                        ledger_json(o, cpus, arms, ledger, untraced, traced)) &&
        write_text_file(base + ".trace.json",
                        spans->chrome_trace_json(kChromeSpans, o.workload));
    report.notes.push_back((ok ? "wrote " : "FAILED to write ") + base +
                           ".ledger.json and .trace.json");
  }
  report.notes.push_back(fmt("(checksum %.3g)", sink_accumulator));
  return report;
}

}  // namespace e2e
