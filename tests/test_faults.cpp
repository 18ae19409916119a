// Unit tests for the analog fault-injection layer (src/faults).
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>

#include <gtest/gtest.h>

#include "faults/fault.hpp"
#include "stats/rng.hpp"

namespace {

constexpr double kMaxCode = 65535.0;
constexpr std::array<std::uint64_t, faults::kNumFaultKinds> kNoneApplied{};

dsp::Trace ramp(std::size_t n) {
  dsp::Trace t(n);
  // A full-scale ramp exercises both rails and every intermediate level.
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = kMaxCode * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return t;
}

TEST(FaultKindTest, NamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < faults::kNumFaultKinds; ++i) {
    names.emplace_back(faults::to_string(static_cast<faults::FaultKind>(i)));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_STREQ(faults::to_string(faults::FaultKind::kClipping), "clipping");
  EXPECT_STREQ(faults::to_string(faults::FaultKind::kTruncation),
               "truncation");
}

TEST(FaultTransformTest, ClippingClampsAboveLevel) {
  const dsp::Trace in = ramp(1000);
  faults::ClippingFault f;
  f.level_fraction = 0.7;
  f.symmetric = false;
  const dsp::Trace out = faults::apply_clipping(in, f, kMaxCode);
  ASSERT_EQ(out.size(), in.size());
  const double rail = 0.7 * kMaxCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LE(out[i], rail + 1e-9);
    if (in[i] < rail) {
      EXPECT_DOUBLE_EQ(out[i], in[i]);
    }
  }
}

TEST(FaultTransformTest, SymmetricClippingClampsBothRails) {
  const dsp::Trace in = ramp(1000);
  faults::ClippingFault f;
  f.level_fraction = 0.8;
  f.symmetric = true;
  const dsp::Trace out = faults::apply_clipping(in, f, kMaxCode);
  const double hi = 0.8 * kMaxCode;
  const double lo = 0.2 * kMaxCode;
  for (double s : out) {
    EXPECT_LE(s, hi + 1e-9);
    EXPECT_GE(s, lo - 1e-9);
  }
}

// The profile ScenarioMatrix.ExtremeFaultsNeverCrash draws: symmetric at
// 0.45, so the lower level (0.55 of full scale) sits above the upper one.
// Every sample comes out at the upper level, as it always has.
TEST(FaultTransformTest, InvertedSymmetricClippingFlattensToUpperLevel) {
  const dsp::Trace in = {0.0, 1000.0, 29490.75, 32000.0, 36044.25, kMaxCode};
  const faults::ClippingFault f{1.0, 0.45, true};
  const dsp::Trace out = faults::apply_clipping(in, f, kMaxCode);
  const dsp::Trace want(in.size(), 29490.75);
  EXPECT_EQ(out, want);
}

TEST(FaultTransformTest, DropoutZeroesOneBoundedRun) {
  const dsp::Trace in(500, 1000.0);
  faults::DropoutFault f;
  f.min_len = 16;
  f.max_len = 64;
  stats::Rng rng(7);
  const dsp::Trace out = faults::apply_dropout(in, f, rng);
  ASSERT_EQ(out.size(), in.size());
  std::size_t zeros = 0;
  for (double s : out) zeros += std::fpclassify(s) == FP_ZERO;
  EXPECT_GE(zeros, f.min_len);
  EXPECT_LE(zeros, f.max_len);
  // The zeroed samples form one contiguous run.
  const auto first = std::find(out.begin(), out.end(), 0.0);
  const auto last = std::find_if(first, out.end(),
                                 [](double s) {
                                   return std::fpclassify(s) != FP_ZERO;
                                 });
  EXPECT_EQ(static_cast<std::size_t>(last - first), zeros);
}

TEST(FaultTransformTest, DcShiftIsConstantAndClamped) {
  const dsp::Trace in = ramp(200);
  faults::DcShiftFault f;
  f.min_shift = 500.0;
  f.max_shift = 500.0;  // deterministic shift
  stats::Rng rng(1);
  const dsp::Trace out = faults::apply_dc_shift(in, f, kMaxCode, rng);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], std::min(in[i] + 500.0, kMaxCode));
  }
}

TEST(FaultTransformTest, EmiBurstStaysWithinAdcRange) {
  const dsp::Trace in(2000, kMaxCode / 2);
  faults::EmiBurstFault f;
  f.sigma = 20000.0;
  f.min_len = 100;
  f.max_len = 500;
  stats::Rng rng(11);
  const dsp::Trace out = faults::apply_emi_burst(in, f, kMaxCode, rng);
  ASSERT_EQ(out.size(), in.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0.0);
    EXPECT_LE(out[i], kMaxCode);
    changed += std::not_equal_to<double>{}(out[i], in[i]);
  }
  EXPECT_GE(changed, f.min_len / 2);  // a zero-mean draw can land on 0 rarely
  EXPECT_LE(changed, f.max_len);
}

TEST(FaultTransformTest, ClockDriftPreservesEndpointsApproximately) {
  const dsp::Trace in = ramp(1000);
  faults::ClockDriftFault f;
  f.max_drift_ppm = 50000.0;  // 5%
  stats::Rng rng(3);
  const dsp::Trace out = faults::apply_clock_drift(in, f, rng);
  ASSERT_FALSE(out.empty());
  // Resampling a ramp yields a ramp: strictly non-decreasing, same start.
  EXPECT_DOUBLE_EQ(out.front(), in.front());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  const double len_ratio =
      static_cast<double>(out.size()) / static_cast<double>(in.size());
  EXPECT_GE(len_ratio, 0.94);
  EXPECT_LE(len_ratio, 1.06);
}

TEST(FaultTransformTest, TruncationKeepsBoundedPrefix) {
  const dsp::Trace in = ramp(1000);
  faults::TruncationFault f;
  f.min_keep = 0.25;
  stats::Rng rng(5);
  const dsp::Trace out = faults::apply_truncation(in, f, rng);
  ASSERT_GE(out.size(), 250u);
  ASSERT_LE(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], in[i]);
  }
}

TEST(FaultTransformTest, EmptyTracesPassThroughEveryTransform) {
  const dsp::Trace empty;
  stats::Rng rng(1);
  EXPECT_TRUE(faults::apply_clipping(empty, {}, kMaxCode).empty());
  EXPECT_TRUE(faults::apply_dropout(empty, {}, rng).empty());
  EXPECT_TRUE(faults::apply_dc_shift(empty, {}, kMaxCode, rng).empty());
  EXPECT_TRUE(faults::apply_emi_burst(empty, {}, kMaxCode, rng).empty());
  EXPECT_TRUE(faults::apply_clock_drift(empty, {}, rng).empty());
  EXPECT_TRUE(faults::apply_truncation(empty, {}, rng).empty());
}

TEST(FaultProfileTest, CannedProfilesAreNamedUniquelyAndResolvable) {
  const auto profiles = faults::canned_profiles();
  ASSERT_GE(profiles.size(), 7u);
  std::vector<std::string> names;
  for (const auto& p : profiles) {
    names.push_back(p.name);
    const auto found = faults::profile_by_name(p.name);
    ASSERT_TRUE(found.has_value()) << p.name;
    EXPECT_EQ(found->name, p.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_FALSE(faults::profile_by_name("no-such-profile").has_value());
}

TEST(FaultProfileTest, CleanProfileIsEmptyOthersAreNot) {
  EXPECT_TRUE(faults::clean_profile().empty());
  for (const auto& p : faults::canned_profiles()) {
    if (p.name == "clean") continue;
    EXPECT_FALSE(p.empty()) << p.name;
  }
}

TEST(FaultInjectorTest, SlowDriftRampAccumulatesAndSaturates) {
  faults::FaultProfile p = faults::slow_poison();
  p.slow_drift->step = 100.0;
  p.slow_drift->max_shift = 250.0;
  faults::FaultInjector inj(p, kMaxCode, 7);
  const dsp::Trace in(64, 1000.0);

  EXPECT_EQ(inj.apply(in), dsp::Trace(64, 1100.0));
  EXPECT_EQ(inj.apply(in), dsp::Trace(64, 1200.0));

  // The third step would reach 300 but saturates at max_shift, and every
  // later firing stays pinned there.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(inj.apply(in), dsp::Trace(64, 1250.0)) << "firing " << i + 3;
  }
  EXPECT_DOUBLE_EQ(inj.apply(in).front(), 1250.0);

  const auto& s = inj.stats();
  EXPECT_EQ(s.applied[static_cast<std::size_t>(faults::FaultKind::kSlowDrift)],
            8u);
}

TEST(FaultInjectorTest, SlowDriftClampsAtTheRails) {
  faults::FaultProfile p = faults::slow_poison();
  p.slow_drift->step = kMaxCode;  // one firing pushes everything past the rail
  p.slow_drift->max_shift = 2.0 * kMaxCode;
  faults::FaultInjector inj(p, kMaxCode, 9);
  const dsp::Trace out = inj.apply(ramp(128));
  for (double c : out) EXPECT_DOUBLE_EQ(c, kMaxCode);
}

TEST(FaultInjectorTest, SameSeedSameOutput) {
  const faults::FaultProfile profile = faults::harsh_environment();
  faults::FaultInjector a(profile, kMaxCode, 42);
  faults::FaultInjector b(profile, kMaxCode, 42);
  for (int i = 0; i < 50; ++i) {
    const dsp::Trace in = ramp(800 + i);
    EXPECT_EQ(a.apply(in), b.apply(in)) << "trace " << i;
  }
  EXPECT_EQ(a.stats().applied, b.stats().applied);
  EXPECT_EQ(a.stats().faulted_traces, b.stats().faulted_traces);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  const faults::FaultProfile profile = faults::emi_storm();
  faults::FaultInjector a(profile, kMaxCode, 1);
  faults::FaultInjector b(profile, kMaxCode, 2);
  bool diverged = false;
  for (int i = 0; i < 50 && !diverged; ++i) {
    diverged = a.apply(ramp(800)) != b.apply(ramp(800));
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, CleanProfileIsIdentityWithZeroStats) {
  faults::FaultInjector injector(faults::clean_profile(), kMaxCode, 9);
  const dsp::Trace in = ramp(500);
  EXPECT_EQ(injector.apply(in), in);
  EXPECT_EQ(injector.stats().applied, kNoneApplied);
  EXPECT_EQ(injector.stats().faulted_traces, 0u);
  EXPECT_EQ(injector.stats().total_traces, 1u);
}

TEST(FaultInjectorTest, StatsCountEveryFiredFault) {
  faults::FaultProfile always;
  always.name = "always";
  always.clipping = faults::ClippingFault{1.0, 0.7, false};
  always.dropout = faults::DropoutFault{1.0, 8, 32};
  always.truncation = faults::TruncationFault{1.0, 0.5};
  faults::FaultInjector injector(always, kMaxCode, 13);
  const std::size_t n = 25;
  for (std::size_t i = 0; i < n; ++i) injector.apply(ramp(600));
  const faults::FaultStats& s = injector.stats();
  EXPECT_EQ(s.total_traces, n);
  EXPECT_EQ(s.faulted_traces, n);
  EXPECT_EQ(s.applied[static_cast<std::size_t>(faults::FaultKind::kClipping)],
            n);
  EXPECT_EQ(s.applied[static_cast<std::size_t>(faults::FaultKind::kDropout)],
            n);
  EXPECT_EQ(
      s.applied[static_cast<std::size_t>(faults::FaultKind::kTruncation)], n);
  EXPECT_EQ(std::accumulate(s.applied.begin(), s.applied.end(),
                            std::uint64_t{0}),
            3 * n);
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFires) {
  faults::FaultProfile p;
  p.name = "zeroed";
  p.emi_burst = faults::EmiBurstFault{0.0, 5000.0, 16, 64};
  faults::FaultInjector injector(p, kMaxCode, 17);
  const dsp::Trace in = ramp(400);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(injector.apply(in), in);
  EXPECT_EQ(injector.stats().applied, kNoneApplied);
}

TEST(FaultInjectorTest, OutputAlwaysWithinAdcRange) {
  // Physical faults can never produce codes a real ADC cannot emit.
  faults::FaultProfile p = faults::harsh_environment();
  faults::FaultInjector injector(p, kMaxCode, 29);
  for (int i = 0; i < 100; ++i) {
    for (double s : injector.apply(ramp(700))) {
      ASSERT_GE(s, 0.0);
      ASSERT_LE(s, kMaxCode);
      ASSERT_TRUE(std::isfinite(s));
    }
  }
}

// --- Sagong-style attack transforms (kOvercurrent, kCorruptionBurst,
// kDriftMasquerade). ---

TEST(AttackTransformTest, OvercurrentZeroParametersIsBitExactNoOp) {
  // The adversary search's grid includes the all-zero point; it must
  // reproduce the clean trace bit for bit, or the search's baseline cell
  // would differ from clean traffic.
  const dsp::Trace in = ramp(1024);
  faults::OvercurrentFault f;
  f.gain = 0.0;
  f.offset = 0.0;
  f.dominant_fraction = 0.6;
  EXPECT_EQ(faults::apply_overcurrent(in, f, kMaxCode), in);
}

TEST(AttackTransformTest, OvercurrentBoostsOnlyDominantSamples) {
  const dsp::Trace in = ramp(1000);
  faults::OvercurrentFault f;
  f.gain = 0.25;
  f.dominant_fraction = 0.6;
  f.offset = 0.0;
  const double level = f.dominant_fraction * kMaxCode;
  const dsp::Trace out = faults::apply_overcurrent(in, f, kMaxCode);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (in[i] < level) {
      EXPECT_DOUBLE_EQ(out[i], in[i]) << "recessive sample " << i;
    } else {
      EXPECT_DOUBLE_EQ(out[i], std::min(in[i] * 1.25, kMaxCode))
          << "dominant sample " << i;
    }
  }
}

TEST(AttackTransformTest, CorruptionBurstZeroAmplitudeIsBitExactNoOp) {
  const dsp::Trace in = ramp(1024);
  faults::CorruptionBurstFault f;
  f.amplitude = 0.0;
  f.duty = 1.0;  // every sample is inside the corruption window
  EXPECT_EQ(faults::apply_corruption_burst(in, f, kMaxCode), in);
}

TEST(AttackTransformTest, CorruptionBurstTouchesOnlyTheDutyWindow) {
  const dsp::Trace in(256, kMaxCode / 2);
  faults::CorruptionBurstFault f;
  f.amplitude = 5000.0;
  f.period_samples = 64.0;
  f.phase = 0.0;
  f.duty = 0.25;
  const dsp::Trace out = faults::apply_corruption_burst(in, f, kMaxCode);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double frac = static_cast<double>(i % 64) / 64.0;
    if (frac >= f.duty) {
      EXPECT_DOUBLE_EQ(out[i], in[i]) << "sample " << i << " outside window";
    }
    EXPECT_GE(out[i], 0.0);
    EXPECT_LE(out[i], kMaxCode);
  }
  EXPECT_NE(out, in) << "a nonzero burst must corrupt something";
}

TEST(AttackTransformTest, DutyCycleScheduleIsExactBresenham) {
  // duty 1 fires every tick, duty 0 never; duty 0.5 fires on exactly the
  // even ticks (the quota floor(tick/2) advances there and nowhere else).
  for (std::uint64_t tick = 1; tick <= 16; ++tick) {
    EXPECT_TRUE(faults::duty_cycle_fires(tick, 1.0)) << tick;
    EXPECT_FALSE(faults::duty_cycle_fires(tick, 0.0)) << tick;
    EXPECT_EQ(faults::duty_cycle_fires(tick, 0.5), tick % 2 == 0) << tick;
  }
  // Any duty's firing count over N ticks is exactly floor(N * duty).
  for (double duty : {0.1, 0.3, 0.37, 0.75, 0.9}) {
    std::uint64_t fired = 0;
    for (std::uint64_t tick = 1; tick <= 1000; ++tick) {
      fired += faults::duty_cycle_fires(tick, duty) ? 1u : 0u;
    }
    EXPECT_EQ(fired, static_cast<std::uint64_t>(std::floor(1000.0 * duty)))
        << "duty " << duty;
  }
}

TEST(FaultInjectorTest, DriftMasqueradeRampSaturatesAtMaxShift) {
  faults::FaultProfile p;
  p.name = "masquerade";
  p.drift_masquerade = faults::DriftMasqueradeFault{
      .probability = 1.0, .ramp_rate = 100.0, .max_shift = 250.0,
      .duty = 1.0};
  faults::FaultInjector inj(p, kMaxCode, 11);
  const dsp::Trace in(64, 1000.0);

  EXPECT_EQ(inj.apply(in), dsp::Trace(64, 1100.0));
  EXPECT_EQ(inj.apply(in), dsp::Trace(64, 1200.0));
  // The third firing would reach 300 but saturates at max_shift; later
  // firings stay pinned.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(inj.apply(in), dsp::Trace(64, 1250.0)) << "firing " << i + 3;
  }
  EXPECT_DOUBLE_EQ(inj.apply(in).front(), 1250.0);
}

TEST(FaultInjectorTest, DriftMasqueradeClampsAtTheAdcRails) {
  faults::FaultProfile p;
  p.name = "masquerade-rails";
  p.drift_masquerade = faults::DriftMasqueradeFault{
      .probability = 1.0, .ramp_rate = kMaxCode, .max_shift = 2.0 * kMaxCode,
      .duty = 1.0};
  faults::FaultInjector inj(p, kMaxCode, 13);
  // One firing pushes the whole ramp past the upper rail.
  for (double c : inj.apply(ramp(128))) EXPECT_DOUBLE_EQ(c, kMaxCode);
}

TEST(FaultInjectorTest, DriftMasqueradeDutyGatesTheRamp) {
  faults::FaultProfile p;
  p.name = "masquerade-duty";
  p.drift_masquerade = faults::DriftMasqueradeFault{
      .probability = 1.0, .ramp_rate = 10.0, .max_shift = 1000.0,
      .duty = 0.5};
  faults::FaultInjector inj(p, kMaxCode, 17);
  const dsp::Trace in(32, 1000.0);
  // Ticks 1..4 at duty 0.5: advance on the even ticks only.
  EXPECT_EQ(inj.apply(in), dsp::Trace(32, 1000.0));
  EXPECT_EQ(inj.apply(in), dsp::Trace(32, 1010.0));
  EXPECT_EQ(inj.apply(in), dsp::Trace(32, 1010.0));
  EXPECT_EQ(inj.apply(in), dsp::Trace(32, 1020.0));
}

TEST(FaultInjectorTest, SlowDriftComposesWithMasqueradeInEnumOrder) {
  // Both ramps configured: kSlowDrift (enum order) applies first, then
  // kDriftMasquerade stacks its own shift on the already-shifted trace.
  // The two cumulative states are independent and the result equals the
  // manual composition of the two transforms.
  faults::FaultProfile p;
  p.name = "both-ramps";
  p.slow_drift = faults::SlowDriftFault{
      .probability = 1.0, .step = 100.0, .max_shift = 300.0};
  p.drift_masquerade = faults::DriftMasqueradeFault{
      .probability = 1.0, .ramp_rate = 40.0, .max_shift = 500.0, .duty = 1.0};
  faults::FaultInjector inj(p, kMaxCode, 19);
  const dsp::Trace in(64, 1000.0);

  const dsp::Trace t1 = inj.apply(in);
  const dsp::Trace manual = faults::apply_slow_drift(
      faults::apply_slow_drift(in, 100.0, kMaxCode), 40.0, kMaxCode);
  EXPECT_EQ(t1, manual);
  EXPECT_DOUBLE_EQ(t1.front(), 1140.0);

  const dsp::Trace t2 = inj.apply(in);
  EXPECT_DOUBLE_EQ(t2.front(), 1280.0);  // 1000 + 200 + 80
  const auto& applied = inj.stats().applied;
  EXPECT_EQ(applied[static_cast<std::size_t>(faults::FaultKind::kSlowDrift)],
            2u);
  EXPECT_EQ(
      applied[static_cast<std::size_t>(faults::FaultKind::kDriftMasquerade)],
      2u);
}

}  // namespace
