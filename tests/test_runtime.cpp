// Unit tests for the runtime supervision layer: watchdog stall/backoff
// discipline, Page–Hinkley drift sentinel, crash-safe checkpoint store
// (commit/rotate/corrupt/recover), and the Supervisor's clean-path
// equivalence, governor decimation, and lifecycle bookkeeping, plus the
// inline lockstep path's equivalence with the threaded pipeline and the
// sequential oracle.  The deterministic end-to-end recovery scenarios
// live in test_runtime_soak.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "core/fnv1a.hpp"
#include "core/online_update.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "faults/fault.hpp"
#include "faults/runtime_fault.hpp"
#include "fleet/fleet_service.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/drift_sentinel.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/watchdog.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/scenario.hpp"
#include "sim/vehicle.hpp"

namespace {

using runtime::DriftConfig;
using runtime::DriftSentinel;
using runtime::HealthState;
using runtime::Watchdog;
using runtime::WatchdogConfig;

// ---------------------------------------------------------------- Watchdog

TEST(WatchdogTest, ProgressNeverStalls) {
  WatchdogConfig wc;
  wc.stall_timeout_ns = 100;
  Watchdog dog(wc);
  for (std::uint64_t t = 0; t < 10; ++t) {
    EXPECT_EQ(dog.poll(t * 1000, t, true), Watchdog::Action::kNone);
  }
  EXPECT_EQ(dog.stalls_detected(), 0u);
}

TEST(WatchdogTest, IdleQueueIsNotAStall) {
  WatchdogConfig wc;
  wc.stall_timeout_ns = 100;
  Watchdog dog(wc);
  // No completed frames, but no work pending either — forever.
  for (std::uint64_t t = 0; t < 50; ++t) {
    EXPECT_EQ(dog.poll(t * 1'000'000, 0, false), Watchdog::Action::kNone);
  }
  EXPECT_EQ(dog.stalls_detected(), 0u);
}

TEST(WatchdogTest, StallRestartBackoffThenGiveUp) {
  WatchdogConfig wc;
  wc.stall_timeout_ns = 100;
  wc.initial_backoff_ns = 50;
  wc.max_backoff_ns = 400;
  wc.max_restarts = 2;
  Watchdog dog(wc);

  EXPECT_EQ(dog.poll(0, 0, true), Watchdog::Action::kNone);  // primes
  EXPECT_EQ(dog.poll(99, 0, true), Watchdog::Action::kNone);
  EXPECT_EQ(dog.poll(101, 0, true), Watchdog::Action::kRestart);
  EXPECT_EQ(dog.stalls_detected(), 1u);
  dog.notify_restarted(101);
  EXPECT_EQ(dog.restart_streak(), 1u);
  EXPECT_EQ(dog.current_backoff_ns(), 50u);

  // Inside the backoff window nothing fires, even though no progress.
  EXPECT_EQ(dog.poll(140, 0, true), Watchdog::Action::kNone);
  // Past backoff and past the stall timeout: second restart of the streak.
  EXPECT_EQ(dog.poll(210, 0, true), Watchdog::Action::kRestart);
  dog.notify_restarted(210);
  EXPECT_EQ(dog.restart_streak(), 2u);
  EXPECT_EQ(dog.current_backoff_ns(), 100u);  // doubled

  // Streak hit max_restarts: the next stall is a give-up, then silence.
  EXPECT_EQ(dog.poll(420, 0, true), Watchdog::Action::kGiveUp);
  EXPECT_EQ(dog.poll(10'000, 0, true), Watchdog::Action::kNone);
  EXPECT_EQ(dog.restarts(), 2u);
  EXPECT_EQ(dog.stalls_detected(), 3u);
}

TEST(WatchdogTest, ProgressResetsTheStreak) {
  WatchdogConfig wc;
  wc.stall_timeout_ns = 100;
  wc.initial_backoff_ns = 10;
  wc.max_restarts = 1;
  Watchdog dog(wc);
  EXPECT_EQ(dog.poll(0, 0, true), Watchdog::Action::kNone);
  EXPECT_EQ(dog.poll(150, 0, true), Watchdog::Action::kRestart);
  dog.notify_restarted(150);
  EXPECT_EQ(dog.restart_streak(), 1u);
  // A completed frame proves the stage alive; the streak ends.
  EXPECT_EQ(dog.poll(200, 1, true), Watchdog::Action::kNone);
  EXPECT_EQ(dog.restart_streak(), 0u);
  // The budget is available again: a fresh stall restarts, not gives up.
  EXPECT_EQ(dog.poll(400, 1, true), Watchdog::Action::kRestart);
}

TEST(WatchdogTest, BackoffClampsAtTheConfiguredMaximum) {
  WatchdogConfig wc;
  wc.initial_backoff_ns = 50;
  wc.max_backoff_ns = 300;
  Watchdog dog(wc);
  std::uint64_t t = 0;
  const std::uint64_t expected[] = {50, 100, 200, 300, 300};
  for (const std::uint64_t want : expected) {
    dog.notify_restarted(t);
    EXPECT_EQ(dog.current_backoff_ns(), want);
    t += 1'000'000;
  }
}

// ----------------------------------------------------------- DriftSentinel

TEST(DriftSentinelTest, StationaryStreamNeverAlarms) {
  DriftConfig dc;
  dc.delta = 0.05;
  dc.lambda = 5.0;
  dc.min_samples = 16;
  DriftSentinel sentinel(2, dc);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_FALSE(sentinel.observe(0, 1.0));
  }
  EXPECT_FALSE(sentinel.alarmed(0));
  EXPECT_LT(sentinel.statistic(0), dc.lambda);
  EXPECT_EQ(sentinel.alarms_total(), 0u);
}

TEST(DriftSentinelTest, SustainedUpwardShiftAlarmsAndLatches) {
  DriftConfig dc;
  dc.delta = 0.05;
  dc.lambda = 5.0;
  dc.min_samples = 16;
  DriftSentinel sentinel(2, dc);
  for (int i = 0; i < 200; ++i) sentinel.observe(0, 1.0);
  ASSERT_FALSE(sentinel.alarmed(0));

  bool fired = false;
  int fired_at = -1;
  for (int i = 0; i < 200 && !fired; ++i) {
    fired = sentinel.observe(0, 2.0);
    fired_at = i;
  }
  EXPECT_TRUE(fired);
  // The running mean starts near 1.0, so each 2.0 sample contributes close
  // to (1 - delta); the alarm lands within a small multiple of lambda.
  EXPECT_LT(fired_at, 30);
  EXPECT_TRUE(sentinel.alarmed(0));
  EXPECT_EQ(sentinel.alarms_total(), 1u);
  // Latched: further samples never re-fire until reset.
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(sentinel.observe(0, 10.0));
  EXPECT_EQ(sentinel.alarms_total(), 1u);
  // The sibling cluster saw nothing.
  EXPECT_FALSE(sentinel.alarmed(1));
}

TEST(DriftSentinelTest, WarmupSuppressesEarlyAlarms) {
  DriftConfig dc;
  dc.delta = 0.0;
  dc.lambda = 0.5;
  dc.min_samples = 64;
  DriftSentinel sentinel(1, dc);
  // Wild swings inside the warmup window must not alarm: the running mean
  // is not yet meaningful.
  for (int i = 0; i < 63; ++i) {
    EXPECT_FALSE(sentinel.observe(0, i % 2 == 0 ? 0.0 : 100.0));
  }
  EXPECT_FALSE(sentinel.alarmed(0));
}

TEST(DriftSentinelTest, ResetRestoresAFreshRegime) {
  DriftConfig dc;
  dc.delta = 0.01;
  dc.lambda = 2.0;
  dc.min_samples = 8;
  DriftSentinel sentinel(1, dc);
  for (int i = 0; i < 50; ++i) sentinel.observe(0, 1.0);
  for (int i = 0; i < 100; ++i) sentinel.observe(0, 3.0);
  ASSERT_TRUE(sentinel.alarmed(0));
  sentinel.reset(0);
  EXPECT_FALSE(sentinel.alarmed(0));
  EXPECT_EQ(sentinel.statistic(0), 0.0);
  // The new regime (3.0 flat) is stationary: no alarm after reset.
  for (int i = 0; i < 500; ++i) EXPECT_FALSE(sentinel.observe(0, 3.0));
}

TEST(DriftSentinelTest, HealthStateNamesAreStable) {
  EXPECT_STREQ(to_string(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(to_string(HealthState::kDrifting), "drifting");
  EXPECT_STREQ(to_string(HealthState::kRetraining), "retraining");
  EXPECT_STREQ(to_string(HealthState::kDegraded), "degraded");
}

// ----------------------------------------------------- shared model fixture

struct Fixture {
  std::optional<sim::Vehicle> vehicle;
  std::optional<vprofile::Model> model;
  vprofile::ExtractionConfig extraction;
  std::vector<dsp::Trace> traces;            // benign stream
  std::vector<vprofile::EdgeSet> edge_sets;  // extracted from the stream
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    fx.vehicle.emplace(sim::vehicle_a(), 11);
    const analog::Environment env = analog::Environment::reference();
    fx.extraction = sim::default_extraction(fx.vehicle->config());

    std::vector<vprofile::EdgeSet> training;
    for (const sim::Capture& cap : fx.vehicle->capture(900, env)) {
      if (auto es = vprofile::extract_edge_set(cap.codes, fx.extraction)) {
        training.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.extraction = fx.extraction;
    auto out = vprofile::train_with_database(training, fx.vehicle->database(),
                                             tc);
    EXPECT_TRUE(out.ok()) << out.error;
    if (!out.ok()) return fx;
    fx.model = std::move(*out.model);

    for (sim::LabeledCapture& lc :
         sim::make_normal_stream(*fx.vehicle, 160, env)) {
      if (auto es =
              vprofile::extract_edge_set(lc.capture.codes, fx.extraction)) {
        fx.edge_sets.push_back(std::move(*es));
      }
      fx.traces.push_back(std::move(lc.capture.codes));
    }
    return fx;
  }();
  return f;
}

/// A model observably different from the fixture's: one trusted edge set
/// folded in moves the cluster mean.
vprofile::Model variant_model() {
  vprofile::Model m = *fixture().model;
  vprofile::OnlineUpdater updater(&m, 100000);
  std::size_t folded = 0;
  for (const vprofile::EdgeSet& es : fixture().edge_sets) {
    if (updater.update(es) == vprofile::UpdateStatus::kUpdated &&
        ++folded == 4) {
      break;
    }
  }
  EXPECT_GE(folded, 1u);
  return m;
}

void corrupt_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const std::size_t size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, 0u);
  const std::size_t at = offset % size;
  f.seekg(static_cast<std::streamoff>(at));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x08);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&byte, 1);
}

// --------------------------------------------------------- CheckpointStore

TEST(CheckpointStoreTest, FreshDirectoryHasNothingToLoad) {
  runtime::CheckpointStore store(::testing::TempDir() + "/ckpt_fresh");
  EXPECT_FALSE(store.has_checkpoint());
  const auto loaded = store.load();
  EXPECT_FALSE(loaded.model.has_value());
  EXPECT_FALSE(loaded.recovered_last_good);
}

TEST(CheckpointStoreTest, CommitRotateAndLoadNewest) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  runtime::CheckpointStore store(::testing::TempDir() + "/ckpt_rotate");
  const vprofile::Model b = variant_model();

  ASSERT_TRUE(store.commit(*fx.model));
  EXPECT_TRUE(store.has_checkpoint());
  auto first = store.load();
  ASSERT_TRUE(first.model.has_value());
  EXPECT_FALSE(first.recovered_last_good);
  EXPECT_EQ(first.model->clusters()[0].mean, fx.model->clusters()[0].mean);

  ASSERT_TRUE(store.commit(b));
  EXPECT_EQ(store.commits(), 2u);
  auto second = store.load();
  ASSERT_TRUE(second.model.has_value());
  EXPECT_FALSE(second.recovered_last_good);
  EXPECT_EQ(second.model->clusters()[0].mean, b.clusters()[0].mean);
}

TEST(CheckpointStoreTest, CorruptCurrentRecoversLastGood) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  runtime::CheckpointStore store(::testing::TempDir() + "/ckpt_corrupt");
  ASSERT_TRUE(store.commit(*fx.model));
  ASSERT_TRUE(store.commit(variant_model()));

  corrupt_byte(store.current_path(), 64);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.model.has_value());
  EXPECT_TRUE(loaded.recovered_last_good);
  EXPECT_FALSE(loaded.error.empty());
  // Last-good is the *first* committed model.
  EXPECT_EQ(loaded.model->clusters()[0].mean, fx.model->clusters()[0].mean);
}

TEST(CheckpointStoreTest, CorruptCurrentIsNeverPromotedToLastGood) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  runtime::CheckpointStore store(::testing::TempDir() + "/ckpt_gate");
  const vprofile::Model b = variant_model();

  ASSERT_TRUE(store.commit(*fx.model));  // current = A
  ASSERT_TRUE(store.commit(b));          // prev = A, current = B
  corrupt_byte(store.current_path(), 128);
  // Committing C must not rotate the corrupt B into last-good.
  ASSERT_TRUE(store.commit(*fx.model));  // current = C (== A's bytes)
  corrupt_byte(store.current_path(), 128);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.model.has_value());
  EXPECT_TRUE(loaded.recovered_last_good);
  // Recovery lands on intact A, never on the corrupt B.
  EXPECT_EQ(loaded.model->clusters()[0].mean, fx.model->clusters()[0].mean);
}

// Two tenants checkpointing into sibling directories under one fleet
// root (the directory-per-tenant layout) must never interfere: commits
// and rotations in one directory leave the other byte-stable, and a
// corruption in one tenant's newest checkpoint recovers from *that
// tenant's* last-good file only.
TEST(CheckpointStoreTest, SiblingTenantDirectoriesDoNotInterfere) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  const std::string root = ::testing::TempDir() + "/ckpt_tenants";
  runtime::CheckpointStore a(fleet::tenant_checkpoint_dir(root, "truck-1"));
  runtime::CheckpointStore b(fleet::tenant_checkpoint_dir(root, "truck-2"));
  ASSERT_NE(a.directory(), b.directory());

  const vprofile::Model vb = variant_model();
  ASSERT_TRUE(a.commit(*fx.model));  // tenant a: one commit, no previous
  ASSERT_TRUE(b.commit(vb));         // tenant b: rotate vb -> last-good
  ASSERT_TRUE(b.commit(*fx.model));

  // b's rotation did not touch a.
  auto la = a.load();
  ASSERT_TRUE(la.model.has_value());
  EXPECT_FALSE(la.recovered_last_good);
  EXPECT_EQ(la.model->clusters()[0].mean, fx.model->clusters()[0].mean);

  // Rot b's newest: b falls back to its own last-good (vb), while a's
  // files are untouched by the neighbour's corruption or recovery.
  corrupt_byte(b.current_path(), 96);
  auto lb = b.load();
  ASSERT_TRUE(lb.model.has_value());
  EXPECT_TRUE(lb.recovered_last_good);
  EXPECT_EQ(lb.model->clusters()[0].mean, vb.clusters()[0].mean);
  auto la2 = a.load();
  ASSERT_TRUE(la2.model.has_value());
  EXPECT_FALSE(la2.recovered_last_good);
}

// Tenant ids that sanitize to the same filesystem-safe leaf ("a/0" and
// "a_0" both become "a_0") must still land in distinct directories — the
// CRC suffix is what disambiguates them.
TEST(CheckpointStoreTest, SanitizedSiblingIdsNeverCollide) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  const std::string root = ::testing::TempDir() + "/ckpt_sanitize";
  const std::string dir_slash = fleet::tenant_checkpoint_dir(root, "a/0");
  const std::string dir_under = fleet::tenant_checkpoint_dir(root, "a_0");
  ASSERT_NE(dir_slash, dir_under);

  runtime::CheckpointStore slash(dir_slash);
  runtime::CheckpointStore under(dir_under);
  const vprofile::Model vb = variant_model();
  ASSERT_TRUE(slash.commit(*fx.model));
  ASSERT_TRUE(under.commit(vb));

  auto ls = slash.load();
  auto lu = under.load();
  ASSERT_TRUE(ls.model.has_value());
  ASSERT_TRUE(lu.model.has_value());
  EXPECT_EQ(ls.model->clusters()[0].mean, fx.model->clusters()[0].mean);
  EXPECT_EQ(lu.model->clusters()[0].mean, vb.clusters()[0].mean);
}

TEST(CheckpointStoreTest, BothCorruptReportsTheFailure) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  runtime::CheckpointStore store(::testing::TempDir() + "/ckpt_both");
  ASSERT_TRUE(store.commit(*fx.model));
  ASSERT_TRUE(store.commit(*fx.model));
  corrupt_byte(store.current_path(), 32);
  corrupt_byte(store.previous_path(), 32);
  const auto loaded = store.load();
  EXPECT_FALSE(loaded.model.has_value());
  EXPECT_FALSE(loaded.error.empty());
}

// -------------------------------------------------------------- Supervisor

struct CollectedResult {
  std::uint64_t seq = 0;
  bool dropped = false;
  bool worker_error = false;
  vprofile::ExtractError extract_error = vprofile::ExtractError::kNone;
  std::optional<vprofile::Detection> detection;
};

std::vector<CollectedResult> run_supervised(
    const runtime::SupervisorConfig& config) {
  const Fixture& fx = fixture();
  std::vector<CollectedResult> results;
  runtime::Supervisor sup(*fx.model, config,
                          [&](const pipeline::FrameResult& r) {
                            results.push_back({r.seq, r.dropped,
                                               r.worker_error, r.extract_error,
                                               r.detection});
                          });
  for (const dsp::Trace& t : fx.traces) sup.submit(t);
  sup.finish();
  return results;
}

TEST(SupervisorTest, CleanRunMatchesThePlainPipeline) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());

  pipeline::PipelineConfig pc;
  pc.num_workers = 3;
  pc.queue_capacity = 32;
  std::vector<CollectedResult> reference;
  pipeline::DetectionPipeline pipe(*fx.model, pc,
                                   [&](pipeline::FrameResult&& r) {
                                     reference.push_back(
                                         {r.seq, r.dropped, r.worker_error,
                                          r.extract_error, r.detection});
                                   });
  for (const dsp::Trace& t : fx.traces) pipe.submit(t);
  pipe.finish();

  runtime::SupervisorConfig sc;
  sc.pipeline = pc;
  sc.online_update = false;
  const auto supervised = run_supervised(sc);

  ASSERT_EQ(supervised.size(), reference.size());
  for (std::size_t i = 0; i < supervised.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(supervised[i].seq, reference[i].seq);
    EXPECT_EQ(supervised[i].worker_error, reference[i].worker_error);
    EXPECT_EQ(supervised[i].extract_error, reference[i].extract_error);
    ASSERT_EQ(supervised[i].detection.has_value(),
              reference[i].detection.has_value());
    if (supervised[i].detection) {
      EXPECT_EQ(supervised[i].detection->verdict,
                reference[i].detection->verdict);
      // Bit-identical: supervision must not perturb the scoring path.
      EXPECT_EQ(supervised[i].detection->min_distance,
                reference[i].detection->min_distance);
    }
  }
}

TEST(SupervisorTest, CleanRunIsHealthyAndConserved) {
  runtime::SupervisorConfig sc;
  sc.pipeline.num_workers = 2;
  const Fixture& fx = fixture();
  runtime::Supervisor sup(*fx.model, sc, nullptr);
  for (const dsp::Trace& t : fx.traces) {
    EXPECT_TRUE(sup.submit(t).has_value());
  }
  sup.poll(1'000'000);
  sup.finish();
  EXPECT_EQ(sup.health(), HealthState::kHealthy);
  const runtime::SupervisorStats s = sup.stats();
  EXPECT_EQ(s.frames_offered, fx.traces.size());
  EXPECT_EQ(s.frames_submitted, fx.traces.size());
  EXPECT_EQ(s.frames_handled, fx.traces.size());
  EXPECT_EQ(s.frames_decimated, 0u);
  EXPECT_EQ(s.restarts, 0u);
  EXPECT_EQ(s.rollbacks, 0u);
  const pipeline::CountersSnapshot c = sup.pipeline_counters();
  EXPECT_TRUE(c.consistent());
  EXPECT_EQ(c.submitted.value(), fx.traces.size());
}

TEST(SupervisorTest, SubmitAfterFinishIsRefused) {
  runtime::SupervisorConfig sc;
  const Fixture& fx = fixture();
  runtime::Supervisor sup(*fx.model, sc, nullptr);
  EXPECT_TRUE(sup.submit(fx.traces.front()).has_value());
  sup.finish();
  EXPECT_FALSE(sup.submit(fx.traces.front()).has_value());
  EXPECT_EQ(sup.stats().frames_submitted, 1u);
}

TEST(SupervisorTest, GovernorShedsDeterministicallyUnderAWedgedWorker) {
  // One worker, wedged on frame 0 by a planned stall: every further submit
  // grows the queue, so the governor's hysteresis and stride are exercised
  // on a fully deterministic depth sequence (lockstep hands control back
  // as soon as the worker is visibly wedged).
  const Fixture& fx = fixture();
  ASSERT_GE(fx.traces.size(), 12u);

  runtime::SupervisorConfig sc;
  sc.pipeline.num_workers = 1;
  sc.pipeline.queue_capacity = 32;
  sc.online_update = false;
  sc.lockstep = true;
  sc.governor_high_water = 4;
  sc.governor_low_water = 1;
  sc.decimation_stride = 2;
  sc.watchdog.stall_timeout_ns = 1'000'000;
  sc.fault_plan.stalls.push_back({0});

  std::uint64_t handled = 0;
  std::uint64_t worker_errors = 0;
  runtime::Supervisor sup(*fx.model, sc,
                          [&](const pipeline::FrameResult& r) {
                            ++handled;
                            worker_errors += r.worker_error ? 1 : 0;
                          });
  // Frames 0..9: 0 wedges its worker; 1..4 queue up (depth 0..3 at submit
  // time); 5 sees depth 4 and trips the governor; from there every other
  // offered frame is shed (ticks 1 and 3 -> offers 6 and 8).
  for (std::size_t i = 0; i < 10; ++i) sup.submit(fx.traces[i]);
  EXPECT_EQ(sup.stats().frames_decimated, 2u);
  EXPECT_EQ(sup.stats().frames_submitted, 8u);

  // Virtual time: prime the watchdog, then jump past the stall timeout.
  sup.poll(1'000);
  sup.poll(2'002'000);
  const runtime::SupervisorStats mid = sup.stats();
  EXPECT_EQ(mid.stalls_detected, 1u);
  EXPECT_EQ(mid.restarts, 1u);

  // Drained: the wedged frame came back as a worker_error, the rest
  // scored.  The queue is empty again, so the governor deactivates.
  EXPECT_TRUE(sup.submit(fx.traces[10]).has_value());
  sup.finish();
  EXPECT_EQ(worker_errors, 1u);
  EXPECT_EQ(handled, 9u);  // 8 wedge-phase frames + 1 after restart
  const pipeline::CountersSnapshot c = sup.pipeline_counters();
  EXPECT_TRUE(c.consistent());
  EXPECT_EQ(c.submitted.value(), 9u);
  EXPECT_EQ(c.worker_errors, 1u);
  EXPECT_EQ(sup.health(), HealthState::kHealthy);
}

TEST(SupervisorTest, ResultSeqIsGlobalAcrossRestarts) {
  const Fixture& fx = fixture();
  runtime::SupervisorConfig sc;
  sc.pipeline.num_workers = 1;
  sc.online_update = false;
  sc.lockstep = true;
  sc.watchdog.stall_timeout_ns = 1'000'000;
  sc.fault_plan.stalls.push_back({3});

  std::vector<std::uint64_t> seqs;
  runtime::Supervisor sup(*fx.model, sc,
                          [&](const pipeline::FrameResult& r) {
                            seqs.push_back(r.seq);
                          });
  for (std::size_t i = 0; i < 8; ++i) {
    sup.submit(fx.traces[i]);
    sup.poll(i * 10'000);
  }
  sup.poll(20'000'000);  // release the wedge
  for (std::size_t i = 8; i < 12; ++i) sup.submit(fx.traces[i]);
  sup.finish();
  ASSERT_EQ(seqs.size(), 12u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i) << "global numbering must survive the restart";
  }
  EXPECT_EQ(sup.stats().restarts, 1u);
}

TEST(SupervisorTest, StallPlansNeedLockstep) {
  runtime::SupervisorConfig sc;
  sc.fault_plan.stalls.push_back({0});
  EXPECT_THROW(runtime::Supervisor(*fixture().model, sc),
               std::invalid_argument);
  sc.lockstep = true;
  EXPECT_NO_THROW(runtime::Supervisor(*fixture().model, sc));
}

// -------------------------------------------- inline lockstep equivalence

/// One vehicle's clean-trained model and a hijack stream passed through
/// faults::harsh_environment(), so extraction-error exits occur next to
/// scored frames.
struct HarshStream {
  std::optional<vprofile::Model> model;
  vprofile::DetectionConfig detection;
  std::vector<dsp::Trace> traces;
};

HarshStream harsh_stream(const sim::VehicleConfig& config, std::uint64_t seed) {
  HarshStream hs;
  sim::Vehicle vehicle(config, seed);
  const analog::Environment env = analog::Environment::reference();
  const vprofile::ExtractionConfig ex = sim::default_extraction(config);
  std::vector<vprofile::EdgeSet> training;
  for (const sim::Capture& cap : vehicle.capture(1200, env)) {
    if (auto es = vprofile::extract_edge_set(cap.codes, ex)) {
      training.push_back(std::move(*es));
    }
  }
  vprofile::TrainingConfig tc;
  tc.extraction = ex;
  auto out = vprofile::train_with_database(training, vehicle.database(), tc);
  EXPECT_TRUE(out.ok()) << out.error;
  if (!out.ok()) return hs;
  hs.model = std::move(*out.model);
  hs.detection = sim::scenario_detection_config(config, 0.0);
  faults::FaultInjector injector(faults::harsh_environment(),
                                 static_cast<double>(config.adc.max_code()),
                                 seed);
  for (sim::LabeledCapture& lc :
       sim::make_hijack_stream(vehicle, 300, 0.1, env)) {
    hs.traces.push_back(injector.apply(lc.capture.codes));
  }
  return hs;
}

struct StreamRun {
  std::vector<pipeline::FrameResult> results;
  std::uint64_t fingerprint = 0;
};

StreamRun run_stream(const HarshStream& hs, bool lockstep,
                     std::size_t workers) {
  runtime::SupervisorConfig sc;
  sc.lockstep = lockstep;
  sc.online_update = false;
  sc.pipeline.num_workers = workers;
  sc.pipeline.detection = hs.detection;
  StreamRun run;
  runtime::Supervisor sup(*hs.model, sc, [&](const pipeline::FrameResult& r) {
    run.results.push_back(r);
  });
  for (const dsp::Trace& t : hs.traces) sup.submit(t);
  sup.finish();
  run.fingerprint = sup.fingerprint();
  return run;
}

/// The supervisor's fingerprint fold (global seq, outcome code, distance
/// bits; then decimated, promotions, rollbacks — all 0 here), recomputed
/// over a plain result stream.
std::uint64_t fold(const std::vector<pipeline::FrameResult>& results) {
  std::uint64_t h = vprofile::kFnv1aOffset;
  for (const pipeline::FrameResult& r : results) {
    h = vprofile::fnv1a_u64(h, r.seq);
    std::uint64_t code = 32;
    if (r.dropped) {
      code = 1;
    } else if (r.worker_error) {
      code = 2;
    } else if (r.extract_error != vprofile::ExtractError::kNone) {
      code = 16 + static_cast<std::uint64_t>(r.extract_error);
    } else {
      code += static_cast<std::uint64_t>(r.detection->verdict);
    }
    h = vprofile::fnv1a_u64(h, code);
    if (r.ok()) {
      h = vprofile::fnv1a_u64(
          h, std::bit_cast<std::uint64_t>(r.detection->min_distance));
    }
  }
  for (int i = 0; i < 3; ++i) h = vprofile::fnv1a_u64(h, 0);
  return h;
}

void expect_same_stream(const std::vector<pipeline::FrameResult>& got,
                        const std::vector<pipeline::FrameResult>& want,
                        const std::string& arm) {
  ASSERT_EQ(got.size(), want.size()) << arm;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(arm + " frame " + std::to_string(i));
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].dropped, want[i].dropped);
    EXPECT_EQ(got[i].worker_error, want[i].worker_error);
    EXPECT_EQ(got[i].extract_error, want[i].extract_error);
    ASSERT_EQ(got[i].detection.has_value(), want[i].detection.has_value());
    if (!got[i].detection) continue;
    EXPECT_EQ(got[i].sa, want[i].sa);
    EXPECT_EQ(got[i].detection->verdict, want[i].detection->verdict);
    EXPECT_EQ(got[i].detection->expected_cluster,
              want[i].detection->expected_cluster);
    EXPECT_EQ(got[i].detection->predicted_cluster,
              want[i].detection->predicted_cluster);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].detection->min_distance),
              std::bit_cast<std::uint64_t>(want[i].detection->min_distance));
  }
}

TEST(LockstepEquivalence, InlineMatchesThreadedAndSequentialOnVehiclesAAndB) {
  for (const auto& [name, config] :
       {std::pair<const char*, sim::VehicleConfig>{"a", sim::vehicle_a()},
        {"b", sim::vehicle_b()}}) {
    SCOPED_TRACE(std::string("vehicle ") + name);
    const HarshStream hs = harsh_stream(config, 0x1A57);
    ASSERT_TRUE(hs.model.has_value());
    const std::vector<pipeline::FrameResult> oracle =
        pipeline::score_sequential(*hs.model, hs.traces, hs.detection);
    std::size_t extract_errors = 0;
    std::size_t scored = 0;
    for (const pipeline::FrameResult& r : oracle) {
      extract_errors += r.extract_error != vprofile::ExtractError::kNone;
      scored += r.ok();
    }
    ASSERT_GT(extract_errors, 0u) << "harsh faults must hit extraction";
    ASSERT_GT(scored, oracle.size() / 2);

    const StreamRun inline_run = run_stream(hs, true, 1);
    expect_same_stream(inline_run.results, oracle, "lockstep");
    EXPECT_EQ(inline_run.fingerprint, fold(oracle));
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const StreamRun threaded = run_stream(hs, false, workers);
      const std::string arm = "free-running w" + std::to_string(workers);
      expect_same_stream(threaded.results, inline_run.results, arm);
      EXPECT_EQ(threaded.fingerprint, inline_run.fingerprint) << arm;
    }
  }
}

/// The `Threads:` line of /proc/self/status.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

TEST(LockstepEquivalence, SixtyFourSyncTenantsStartNoThread) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  fleet::FleetConfig fc;
  fc.threaded = false;
  fc.tenant.supervisor.lockstep = true;
  fc.tenant.supervisor.online_update = false;
  const std::size_t before = thread_count();
  ASSERT_GT(before, 0u);
  fleet::FleetService service(fc);
  for (int t = 0; t < 64; ++t) {
    std::string error;
    ASSERT_TRUE(service.register_tenant("bus" + std::to_string(t), *fx.model,
                                        &error))
        << error;
  }
  EXPECT_EQ(thread_count(), before);
  for (int t = 0; t < 64; ++t) {
    EXPECT_EQ(service.ingest("bus" + std::to_string(t), fx.traces[t % 8]),
              fleet::IngestResult::kAccepted);
  }
  EXPECT_EQ(thread_count(), before);
  service.finish();
  std::uint64_t handled = 0;
  for (const fleet::TenantSnapshot& t : service.tenants()) {
    handled += t.supervisor.frames_handled;
  }
  EXPECT_EQ(handled, 64u);
}

}  // namespace
