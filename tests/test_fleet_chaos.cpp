// Deterministic transport-chaos harness for the fleet service.  Five
// tenants stream frames over the binary wire codec in lockstep while
// faults are aimed at specific tenants — torn chunks, duplicated chunks,
// reordered chunks, a rotted checkpoint — and the containment contract
// is asserted exactly:
//
//  * every non-faulted tenant's fingerprint is bit-identical to the
//    fault-free baseline run;
//  * duplicated delivery is invisible (dedup keeps the dup tenant's
//    fingerprint equal to the baseline too);
//  * faulted tenants end in a *reported* quarantined / evicted / degraded
//    state — the process never dies;
//  * the whole run is byte-stable across repeated runs (statusz JSON
//    equality) and fingerprint-stable across shard counts and threading
//    modes for every tenant whose admission sequence is mode-independent.
//
// Everything is a pure function of the input bytes: supervisors run in
// lockstep on per-tenant virtual clocks, and every shedding / dedup /
// quarantine decision happens at ingest in arrival order.  The `fleet`
// ctest label lets CI schedule this suite separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kTrainCount = 900;
constexpr std::size_t kFramesPerTenant = 100;

const std::vector<std::string>& tenant_ids() {
  static const std::vector<std::string> ids = {
      "clean-1", "clean-2", "chaos-dup", "chaos-reorder", "chaos-torn"};
  return ids;
}

/// The benign stream holds six slices of kFramesPerTenant traces.  Tenant
/// t streams slice t, except the torn tenant (the last), which streams
/// the last slice.  Slice 4 is spare: it keeps every tenant's frames, and
/// so its fingerprint, equal to earlier builds of this suite, where a
/// sixth tenant streamed it.
constexpr std::size_t kStreamSlices = 6;

std::size_t slice_of(std::size_t tenant) {
  return tenant + 1 == tenant_ids().size() ? kStreamSlices - 1 : tenant;
}

struct World {
  std::optional<vprofile::Model> model;
  std::vector<std::vector<dsp::Trace>> slices;
};

const World& world() {
  static const World w = [] {
    World out;
    sim::Vehicle vehicle(sim::vehicle_a(), kSeed);
    const analog::Environment env = analog::Environment::reference();
    const auto extraction = sim::default_extraction(vehicle.config());

    std::vector<vprofile::EdgeSet> training;
    for (const sim::Capture& cap : vehicle.capture(kTrainCount, env)) {
      if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
        training.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.extraction = extraction;
    auto trained =
        vprofile::train_with_database(training, vehicle.database(), tc);
    EXPECT_TRUE(trained.ok()) << trained.error;
    if (!trained.ok()) return out;
    out.model = std::move(*trained.model);

    const std::size_t total = kStreamSlices * kFramesPerTenant;
    auto stream = sim::make_normal_stream(vehicle, total, env);
    out.slices.resize(kStreamSlices);
    for (std::size_t t = 0; t < kStreamSlices; ++t) {
      for (std::size_t i = 0; i < kFramesPerTenant; ++i) {
        out.slices[t].push_back(
            std::move(stream[t * kFramesPerTenant + i].capture.codes));
      }
    }
    return out;
  }();
  return w;
}

// ---------------------------------------------------------------------------
// Wire-level chunk streams.  Each tenant's uplink is a vector of chunks
// (one wire write each); the feeder below interleaves tenants round-robin
// so arrival order — and therefore every admission decision — is fixed.

std::vector<std::string> encode_clean(const std::string& id,
                                      const std::vector<dsp::Trace>& traces,
                                      bool with_drain) {
  std::vector<std::string> chunks;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    fleet::wire::Frame f;
    f.tenant = id;
    f.seq = i;
    f.samples = traces[i];
    chunks.push_back(fleet::wire::encode(f));
    EXPECT_FALSE(chunks.back().empty());
  }
  if (with_drain) {
    fleet::wire::Frame drain;
    drain.kind = fleet::wire::FrameKind::kDrain;
    drain.tenant = id;
    drain.seq = traces.size();
    chunks.push_back(fleet::wire::encode(drain));
  }
  return chunks;
}

/// Every data chunk delivered twice (an at-least-once relay re-sending).
std::vector<std::string> fault_duplicate(std::vector<std::string> chunks) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    out.push_back(chunks[i]);
    if (i + 1 != chunks.size()) out.push_back(chunks[i]);  // not the drain
  }
  return out;
}

/// Adjacent data chunks swapped pairwise (reordered delivery).
std::vector<std::string> fault_reorder(std::vector<std::string> chunks) {
  for (std::size_t i = 0; i + 2 < chunks.size(); i += 2) {
    std::swap(chunks[i], chunks[i + 1]);  // keep the trailing drain in place
  }
  return chunks;
}

/// Every 7th chunk loses a strided run of tail bytes (a reconnecting
/// uplink tearing frames mid-write).  The tears leave the tenant field
/// intact, so the CRC failures stay attributable — that is what drives
/// the quarantine.
std::vector<std::string> fault_tear(std::vector<std::string> chunks) {
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {  // never the drain
    if (i % 7 != 3) continue;
    const std::size_t cut = 1 + (i * 13) % 40;
    if (chunks[i].size() > cut + 32) {
      chunks[i].resize(chunks[i].size() - cut);
    }
  }
  return chunks;
}

struct RunOutcome {
  std::map<std::string, fleet::TenantSnapshot> pre_drain;
  std::map<std::string, fleet::TenantSnapshot> final_state;
  fleet::FleetStats stats;
  std::uint64_t fleet_fingerprint = 0;
  std::string statusz;
};

fleet::FleetConfig chaos_config(std::size_t shards, bool threaded) {
  fleet::FleetConfig cfg;
  cfg.num_shards = shards;
  cfg.threaded = threaded;
  cfg.tenant.supervisor.lockstep = true;
  cfg.tenant.supervisor.pipeline.num_workers = 1;
  cfg.tenant.supervisor.online_update = false;
  cfg.tenant.quarantine_decode_errors = 3;
  cfg.tenant.revive_backoff_frames = 16;
  cfg.tenant.revive_max_attempts = 4;
  return cfg;
}

/// Drives one full fleet run over per-tenant chunk streams, interleaving
/// chunks round-robin through per-connection decoders.
RunOutcome run_fleet(const fleet::FleetConfig& cfg,
                     const std::map<std::string, std::vector<std::string>>&
                         uplinks) {
  const World& w = world();
  EXPECT_TRUE(w.model.has_value());

  fleet::FleetService service(cfg);
  for (const std::string& id : tenant_ids()) {
    EXPECT_TRUE(service.register_tenant(id, *w.model));
  }

  std::map<std::string, fleet::wire::Decoder> decoders;
  std::size_t max_chunks = 0;
  for (const auto& [id, chunks] : uplinks) {
    decoders.emplace(id, fleet::wire::Decoder());
    max_chunks = std::max(max_chunks, chunks.size());
  }
  for (std::size_t step = 0; step < max_chunks; ++step) {
    for (const std::string& id : tenant_ids()) {
      const auto& chunks = uplinks.at(id);
      if (step >= chunks.size()) continue;
      fleet::wire::Decoder& decoder = decoders.at(id);
      decoder.feed(chunks[step].data(), chunks[step].size());
      while (auto event = decoder.next()) {
        service.handle_wire_event(*event);
      }
    }
  }

  RunOutcome out;
  for (const auto& snap : service.tenants()) {
    out.pre_drain.emplace(snap.id, snap);
  }
  service.finish();
  for (const auto& snap : service.tenants()) {
    out.final_state.emplace(snap.id, snap);
  }
  out.stats = service.stats();
  out.fleet_fingerprint = service.fingerprint();
  out.statusz = service.statusz_json();
  return out;
}

std::map<std::string, std::vector<std::string>> clean_uplinks() {
  const World& w = world();
  std::map<std::string, std::vector<std::string>> uplinks;
  for (std::size_t t = 0; t < tenant_ids().size(); ++t) {
    uplinks[tenant_ids()[t]] = encode_clean(
        tenant_ids()[t], w.slices[slice_of(t)], /*with_drain=*/true);
  }
  return uplinks;
}

std::map<std::string, std::vector<std::string>> chaos_uplinks() {
  auto uplinks = clean_uplinks();
  uplinks["chaos-dup"] = fault_duplicate(uplinks["chaos-dup"]);
  uplinks["chaos-reorder"] = fault_reorder(uplinks["chaos-reorder"]);
  // The torn uplink never sends its drain: a quarantined tenant's client
  // gave up; finish() drains whatever is left.
  auto torn = encode_clean(
      "chaos-torn", world().slices[slice_of(tenant_ids().size() - 1)],
      /*with_drain=*/false);
  uplinks["chaos-torn"] = fault_tear(std::move(torn));
  return uplinks;
}

TEST(FleetChaos, FaultsAreContainedToTheFaultedTenants) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());

  // Fault-free baseline: every tenant clean, default supervisors.
  const RunOutcome baseline =
      run_fleet(chaos_config(2, false), clean_uplinks());
  for (const std::string& id : tenant_ids()) {
    const auto& snap = baseline.final_state.at(id);
    EXPECT_EQ(snap.state, fleet::TenantState::kDrained) << id;
    EXPECT_NE(snap.fingerprint, 0u) << id;
    EXPECT_EQ(snap.transport.frames, kFramesPerTenant) << id;
  }
  EXPECT_EQ(baseline.stats.wire_errors, 0u);

  // Chaos run: duplicates, reordering and tears, all at once.
  const RunOutcome chaos = run_fleet(chaos_config(2, false), chaos_uplinks());

  // Non-faulted tenants: bit-identical to the fault-free run.
  for (const std::string id : {"clean-1", "clean-2"}) {
    EXPECT_EQ(chaos.final_state.at(id).fingerprint,
              baseline.final_state.at(id).fingerprint)
        << id;
    EXPECT_EQ(chaos.final_state.at(id).state, fleet::TenantState::kDrained);
  }

  // Duplicated delivery must be invisible: dedup keeps the scored stream
  // — and the fingerprint — equal to exactly-once delivery.
  const auto& dup = chaos.final_state.at("chaos-dup");
  EXPECT_EQ(dup.fingerprint, baseline.final_state.at("chaos-dup").fingerprint);
  EXPECT_EQ(dup.transport.duplicates_dropped, kFramesPerTenant);
  EXPECT_EQ(dup.state, fleet::TenantState::kDrained);

  // Reordered delivery: late chunks drop as duplicates, the skipped seqs
  // are counted as gaps, and the tenant still drains cleanly.
  const auto& reorder = chaos.final_state.at("chaos-reorder");
  EXPECT_GE(reorder.transport.gaps_detected, 1u);
  EXPECT_GE(reorder.transport.duplicates_dropped, 1u);
  EXPECT_EQ(reorder.state, fleet::TenantState::kDrained);

  // The torn uplink: CRC failures are attributed, the tenant is
  // quarantined (and possibly revived and eventually evicted) — a
  // *reported* state, never a crash — and the errors never leak into any
  // other tenant's books.
  const auto& torn_pre = chaos.pre_drain.at("chaos-torn");
  EXPECT_GE(torn_pre.transport.decode_errors, 3u);
  EXPECT_TRUE(torn_pre.state == fleet::TenantState::kQuarantined ||
              torn_pre.state == fleet::TenantState::kEvicted ||
              torn_pre.state == fleet::TenantState::kDegraded ||
              torn_pre.state == fleet::TenantState::kActive)
      << fleet::to_string(torn_pre.state);
  EXPECT_GE(chaos.stats.quarantines, 1u);
  EXPECT_GE(chaos.stats.revivals, 1u);
  const auto& torn = chaos.final_state.at("chaos-torn");
  EXPECT_TRUE(torn.state == fleet::TenantState::kDrained ||
              torn.state == fleet::TenantState::kEvicted)
      << fleet::to_string(torn.state);
  for (const std::string id :
       {"clean-1", "clean-2", "chaos-dup", "chaos-reorder"}) {
    EXPECT_EQ(chaos.final_state.at(id).transport.decode_errors, 0u) << id;
  }
  EXPECT_GE(chaos.stats.wire_errors, torn_pre.transport.decode_errors);
}

// The same chaos input must produce the same bytes every time: statusz
// JSON equality is the strictest whole-run check we have.
TEST(FleetChaos, ChaosRunIsByteStableAcrossRepeats) {
  const RunOutcome first =
      run_fleet(chaos_config(2, false), chaos_uplinks());
  const RunOutcome second =
      run_fleet(chaos_config(2, false), chaos_uplinks());
  EXPECT_EQ(first.fleet_fingerprint, second.fleet_fingerprint);
  EXPECT_EQ(first.statusz, second.statusz);
}

// Shard count and threading must not change any tenant whose admission
// sequence is mode-independent (no mid-stream revival): lockstep
// supervisors + arrival-order admission make the fingerprints equal.
// (The torn tenant's revival timing is allowed to differ between inline
// and queued execution, so it is excluded.)
TEST(FleetChaos, FingerprintsStableAcrossShardsAndThreading) {
  const RunOutcome reference =
      run_fleet(chaos_config(1, false), chaos_uplinks());
  const RunOutcome wide =
      run_fleet(chaos_config(4, false), chaos_uplinks());
  const RunOutcome threaded =
      run_fleet(chaos_config(3, true), chaos_uplinks());
  for (const std::string id :
       {"clean-1", "clean-2", "chaos-dup", "chaos-reorder"}) {
    EXPECT_EQ(wide.final_state.at(id).fingerprint,
              reference.final_state.at(id).fingerprint)
        << id;
    EXPECT_EQ(threaded.final_state.at(id).fingerprint,
              reference.final_state.at(id).fingerprint)
        << id;
  }
}

// Checkpoint rot under chaos: the victim's newest checkpoint is corrupted
// mid-stream, a decode-error quarantine forces a revival, and the revival
// must land on the last-good checkpoint (reported as degraded) while the
// witness never notices.
TEST(FleetChaos, CheckpointRotRevivesLastGoodMidstream) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  const std::string root = ::testing::TempDir() + "fleet_chaos_ckpt";
  std::filesystem::remove_all(root);

  fleet::FleetConfig cfg = chaos_config(2, false);
  cfg.checkpoint_root = root;
  cfg.tenant.supervisor.checkpoint_every = 8;
  cfg.tenant.quarantine_decode_errors = 1;
  cfg.tenant.revive_backoff_frames = 4;
  fleet::FleetService service(cfg);
  ASSERT_TRUE(service.register_tenant("ckpt-victim", *w.model));
  ASSERT_TRUE(service.register_tenant("ckpt-witness", *w.model));

  auto send = [&service](const std::string& id, const dsp::Trace& trace,
                         std::uint64_t seq) {
    fleet::wire::Frame f;
    f.tenant = id;
    f.seq = seq;
    f.samples = trace;
    const std::string bytes = fleet::wire::encode(f);
    fleet::wire::Decoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    while (auto event = decoder.next()) service.handle_wire_event(*event);
  };

  for (std::size_t i = 0; i < 24; ++i) {
    send("ckpt-victim", w.slices[0][i], i);
    send("ckpt-witness", w.slices[1][i], i);
  }
  {
    auto snap = service.tenant("ckpt-victim");
    ASSERT_TRUE(snap.has_value());
    ASSERT_GE(snap->supervisor.checkpoints_committed, 2u);
  }

  // One corrupt chunk claiming the victim quarantines it (the retire
  // commits the supervisor's final checkpoint); the newest file then rots
  // on disk while the tenant is down, so the revival must fall back to
  // the last-good checkpoint.
  fleet::wire::Decoder::Event corrupt;
  corrupt.error = fleet::wire::DecodeError::kBadCrc;
  corrupt.claimed_tenant = "ckpt-victim";
  service.handle_wire_event(corrupt);
  {
    auto snap = service.tenant("ckpt-victim");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, fleet::TenantState::kQuarantined);
  }
  runtime::CheckpointStore store(
      fleet::tenant_checkpoint_dir(root, "ckpt-victim"));
  ASSERT_TRUE(store.has_checkpoint());
  {
    std::fstream f(store.current_path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    char byte = 0;
    f.seekg(16);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x08);
    f.seekp(16);
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
  }

  for (std::size_t i = 24; i < 40; ++i) {
    send("ckpt-victim", w.slices[0][i], i);
    send("ckpt-witness", w.slices[1][i], i);
  }
  auto victim = service.tenant("ckpt-victim");
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->state, fleet::TenantState::kDegraded);
  EXPECT_TRUE(victim->recovered_last_good);
  EXPECT_EQ(victim->reason, "revived from last-good checkpoint");
  EXPECT_EQ(victim->generations, 2u);

  service.finish();
  auto witness = service.tenant("ckpt-witness");
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->state, fleet::TenantState::kDrained);
  EXPECT_EQ(witness->transport.frames, 40u);
  EXPECT_EQ(witness->transport.decode_errors, 0u);
  EXPECT_EQ(witness->supervisor.frames_handled, 40u);
}

}  // namespace
