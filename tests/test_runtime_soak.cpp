// Deterministic soak scenarios for the runtime supervision layer.  Each
// scenario drives the Supervisor in lockstep mode on virtual time, so a
// run is a pure function of (seed, config, injected drift): drift
// alarms / candidate validation / promotion & rollback all happen at
// frame-indexed points, and two same-seed runs must produce
// bit-identical verdict fingerprints.  The `soak` ctest label lets CI
// schedule these separately from the fast unit suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "faults/fault.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kTrainCount = 900;
constexpr std::size_t kStreamCount = 1600;

struct World {
  std::optional<vprofile::Model> model;
  std::vector<dsp::Trace> traces;  // benign, pre-fault
  double max_code = 0.0;
};

/// Trained model + benign stream, generated once; every soak run copies
/// its input traces from here, so repeated runs see identical bytes.
const World& world() {
  static const World w = [] {
    World out;
    sim::Vehicle vehicle(sim::vehicle_a(), kSeed);
    const analog::Environment env = analog::Environment::reference();
    const auto extraction = sim::default_extraction(vehicle.config());
    out.max_code = vehicle.config().adc.max_code();

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

    for (sim::LabeledCapture& lc :
         sim::make_normal_stream(vehicle, kStreamCount, env)) {
      out.traces.push_back(std::move(lc.capture.codes));
    }
    return out;
  }();
  return w;
}

/// A Sagong-style transient poisoning attack: the DC offset ramps up by
/// `step` codes per frame from `ramp_start`, saturates at `max_shift`, and
/// vanishes at `cliff_frame` (the attacker detaches).  Deterministic: no
/// injector RNG involved.
struct TransientDrift {
  std::size_t ramp_start = 0;
  std::size_t cliff_frame = 0;
  double step = 0.0;
  double max_shift = 0.0;

  double shift_at(std::size_t frame) const {
    if (frame < ramp_start || frame >= cliff_frame) return 0.0;
    const double s = static_cast<double>(frame - ramp_start) * step;
    return std::min(s, max_shift);
  }
};

struct SoakConfig {
  std::size_t frame_count = 1200;
  /// Analog slow-drift ramp applied to every frame (nullopt = clean).
  std::optional<faults::SlowDriftFault> drift;
  /// Ramp-then-detach poisoning applied directly (nullopt = none).
  std::optional<TransientDrift> transient;
  runtime::SupervisorConfig sup;
  /// Virtual nanoseconds between supervision ticks (one per frame).
  std::uint64_t tick_ns = 1'000'000;
};

struct SoakOutcome {
  std::uint64_t fingerprint = 0;
  runtime::SupervisorStats stats;
  runtime::HealthState health = runtime::HealthState::kHealthy;
  pipeline::CountersSnapshot counters;
};

SoakOutcome run_soak(const SoakConfig& cfg) {
  const World& w = world();
  EXPECT_TRUE(w.model.has_value());
  EXPECT_LE(cfg.frame_count, w.traces.size());

  faults::FaultProfile profile;
  profile.name = "soak-drift";
  profile.slow_drift = cfg.drift;
  faults::FaultInjector injector(profile, w.max_code, kSeed ^ 0x50a4ULL);

  runtime::SupervisorConfig sc = cfg.sup;
  sc.lockstep = true;  // verdict stream == pure function of the inputs
  sc.pipeline.num_workers = 1;

  runtime::Supervisor sup(*w.model, sc, nullptr);
  for (std::size_t i = 0; i < cfg.frame_count; ++i) {
    const dsp::Trace& t = w.traces[i];
    if (!profile.empty()) {
      sup.submit(injector.apply(t));
    } else if (cfg.transient &&
               std::fpclassify(cfg.transient->shift_at(i)) != FP_ZERO) {
      sup.submit(
          faults::apply_slow_drift(t, cfg.transient->shift_at(i), w.max_code));
    } else {
      sup.submit(t);
    }
    sup.poll(static_cast<std::uint64_t>(i + 1) * cfg.tick_ns);
  }
  sup.finish();

  SoakOutcome out;
  out.fingerprint = sup.fingerprint();
  out.stats = sup.stats();
  out.health = sup.health();
  out.counters = sup.pipeline_counters();
  return out;
}

SoakConfig drift_promote_config() {
  SoakConfig cfg;
  cfg.frame_count = 1200;
  // Gentle environmental drift: +0.5 ADC codes per frame, saturating at a
  // 30-code DC shift — distances rise but stay well inside the margin, so
  // the gate keeps accepting and the candidate validates cleanly.
  cfg.drift = faults::SlowDriftFault{1.0, 0.5, 30.0};
  cfg.sup.pipeline.detection.margin = 30.0;
  cfg.sup.drift.delta = 0.25;
  cfg.sup.drift.lambda = 60.0;
  cfg.sup.drift.min_samples = 48;
  cfg.sup.gate.max_distance_fraction = 1.0;
  cfg.sup.retrain_batch = 48;
  cfg.sup.validation_window = 48;
  cfg.sup.validation_max_regressions = 6;
  return cfg;
}

SoakConfig poison_rollback_config() {
  SoakConfig cfg;
  cfg.frame_count = 1600;
  // Ramp-then-detach poisoning: the candidate chases the attacker's ramp,
  // the attacker unplugs at frame 600, and the held-out window refills
  // with normal frames the candidate has drifted away from.  With zero
  // margin those frames sit against the threshold, so strict validation
  // (no regressions allowed) catches the poisoned candidate.
  cfg.transient = TransientDrift{200, 600, 0.25, 60.0};
  cfg.sup.pipeline.detection.margin = 0.0;
  cfg.sup.drift.delta = 0.25;
  cfg.sup.drift.lambda = 25.0;
  cfg.sup.drift.min_samples = 48;
  cfg.sup.gate.max_distance_fraction = 1.0;
  cfg.sup.retrain_batch = 128;
  cfg.sup.validation_window = 64;
  cfg.sup.validation_max_regressions = 0;
  return cfg;
}

void corrupt_file(const std::string& path, std::size_t offset,
                  unsigned char mask) {
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, 0u);
  const auto pos = static_cast<std::streamoff>(offset % size);
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ static_cast<char>(mask));
  f.seekp(pos);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

TEST(Soak, CheckpointCorruptionRecoversLastGood) {
  const std::string dir = ::testing::TempDir() + "soak_ckpt_corrupt";
  SoakConfig cfg;
  cfg.frame_count = 600;
  cfg.sup.online_update = false;
  cfg.sup.checkpoint_dir = dir;
  cfg.sup.checkpoint_every = 200;
  const SoakOutcome o = run_soak(cfg);
  ASSERT_GE(o.stats.checkpoints_committed, 2u);

  // Flip one bit of one byte in the newest checkpoint after the final
  // commit; the CRC-32 footer must reject it and load() must fall back to
  // the last-good file.
  runtime::CheckpointStore store(dir);
  corrupt_file(store.current_path(), 64, 0x08);

  const auto loaded = store.load();
  ASSERT_TRUE(loaded.model.has_value()) << loaded.error;
  EXPECT_TRUE(loaded.recovered_last_good);
  EXPECT_EQ(loaded.model->clusters().size(),
            world().model->clusters().size());
}

TEST(Soak, SustainedDriftRetrainsAndPromotes) {
  const SoakOutcome o = run_soak(drift_promote_config());
  EXPECT_GE(o.stats.drift_alarms, 1u);
  EXPECT_GE(o.stats.candidates_started, 1u);
  EXPECT_GE(o.stats.promotions, 1u);
  EXPECT_EQ(o.stats.rollbacks, 0u);
  EXPECT_NE(o.health, runtime::HealthState::kDegraded);
  EXPECT_EQ(o.stats.frames_handled, 1200u);
}

TEST(Soak, PoisonedRetrainRollsBack) {
  const SoakOutcome o = run_soak(poison_rollback_config());
  EXPECT_GE(o.stats.drift_alarms, 1u);
  EXPECT_EQ(o.stats.candidates_started, 1u);
  EXPECT_EQ(o.stats.promotions, 0u);
  EXPECT_EQ(o.stats.rollbacks, 1u);
  EXPECT_EQ(o.health, runtime::HealthState::kDegraded);
  EXPECT_EQ(o.stats.frames_handled, 1600u);
}

TEST(Soak, SameSeedRunsAreBitIdentical) {
  for (const SoakConfig& cfg :
       {drift_promote_config(), poison_rollback_config()}) {
    const SoakOutcome a = run_soak(cfg);
    const SoakOutcome b = run_soak(cfg);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.stats.frames_handled, b.stats.frames_handled);
    EXPECT_EQ(a.stats.worker_errors, b.stats.worker_errors);
    EXPECT_EQ(a.stats.drift_alarms, b.stats.drift_alarms);
    EXPECT_EQ(a.stats.promotions, b.stats.promotions);
    EXPECT_EQ(a.stats.rollbacks, b.stats.rollbacks);
    EXPECT_EQ(a.stats.frames_submitted, b.stats.frames_submitted);
    EXPECT_EQ(a.health, b.health);
  }
}

}  // namespace
