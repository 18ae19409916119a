#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "analog/environment.hpp"
#include "analog/signature.hpp"
#include "analog/synth.hpp"
#include "canbus/frame.hpp"
#include "stats/rng.hpp"
#include "stats/welford.hpp"

namespace {

using analog::EcuSignature;
using analog::Environment;
using analog::SynthOptions;
using canbus::BitVector;

EcuSignature quiet_signature() {
  EcuSignature s;
  s.dominant = units::Volts{2.0};
  s.recessive = units::Volts{0.0};
  s.drive = {2.0e6, 0.7};
  s.release = {1.0e6, 0.85};
  s.noise_sigma = units::Volts{0.0};
  s.edge_jitter = units::Seconds{0.0};
  return s;
}

SynthOptions fast_options() {
  SynthOptions o;
  o.bitrate = units::BitRateBps{250e3};
  o.sample_rate = units::SampleRateHz{20e6};
  o.sampling_phase_jitter = false;
  return o;
}

/// A single dominant bit surrounded by recessive.
BitVector pulse_bits() {
  BitVector bits(9, true);
  bits[4] = false;
  return bits;
}

TEST(Synth, IdleLevelIsRecessive) {
  stats::Rng rng(1);
  const auto trace = analog::synthesize_frame_voltage(
      BitVector(8, true), quiet_signature(), Environment::reference(),
      fast_options(), rng);
  for (double v : trace) EXPECT_NEAR(v, 0.0, 1e-6);
}

TEST(Synth, DominantBitReachesDominantLevel) {
  stats::Rng rng(1);
  const EcuSignature sig = quiet_signature();
  const auto trace = analog::synthesize_frame_voltage(
      pulse_bits(), sig, Environment::reference(), fast_options(), rng);
  const double peak = *std::max_element(trace.begin(), trace.end());
  EXPECT_GT(peak, 0.9 * sig.dominant.value());
  // Settles back to recessive by the end.
  EXPECT_NEAR(trace.back(), sig.recessive.value(), 0.05);
}

TEST(Synth, UnderdampedDriveOvershoots) {
  stats::Rng rng(1);
  EcuSignature sig = quiet_signature();
  sig.drive.damping = 0.5;  // strongly underdamped
  // Long dominant run so the response fully settles.
  BitVector bits(4, true);
  for (int i = 0; i < 5; ++i) bits.push_back(false);
  bits.push_back(true);  // stuffing would forbid more, irrelevant here
  const auto trace = analog::synthesize_frame_voltage(
      bits, sig, Environment::reference(), fast_options(), rng);
  const double peak = *std::max_element(trace.begin(), trace.end());
  const double overshoot_expected =
      std::exp(-M_PI * 0.5 / std::sqrt(1.0 - 0.25));
  EXPECT_NEAR(peak, sig.dominant.value() * (1.0 + overshoot_expected), 0.05);
}

TEST(Synth, HigherDampingMeansLessOvershoot) {
  auto peak_with_damping = [&](double zeta) {
    stats::Rng rng(1);
    EcuSignature sig = quiet_signature();
    sig.drive.damping = zeta;
    BitVector bits(4, true);
    for (int i = 0; i < 5; ++i) bits.push_back(false);
    const auto trace = analog::synthesize_frame_voltage(
        bits, sig, Environment::reference(), fast_options(), rng);
    return *std::max_element(trace.begin(), trace.end());
  };
  EXPECT_GT(peak_with_damping(0.5), peak_with_damping(0.9));
}

TEST(Synth, FasterNaturalFrequencyRisesSooner) {
  auto crossing_index = [&](double freq) {
    stats::Rng rng(1);
    EcuSignature sig = quiet_signature();
    sig.drive.natural_freq_hz = freq;
    const auto trace = analog::synthesize_frame_voltage(
        pulse_bits(), sig, Environment::reference(), fast_options(), rng);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] > 1.0) return i;
    }
    return trace.size();
  };
  EXPECT_LT(crossing_index(4.0e6), crossing_index(1.0e6));
}

TEST(Synth, DeterministicGivenSeedAndNoJitter) {
  EcuSignature sig = quiet_signature();
  sig.noise_sigma = units::Volts{0.01};
  stats::Rng r1(99);
  stats::Rng r2(99);
  SynthOptions opts = fast_options();
  opts.sampling_phase_jitter = true;
  const auto a = analog::synthesize_frame_voltage(
      pulse_bits(), sig, Environment::reference(), opts, r1);
  const auto b = analog::synthesize_frame_voltage(
      pulse_bits(), sig, Environment::reference(), opts, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Synth, NoiseSigmaControlsSpread) {
  EcuSignature sig = quiet_signature();
  sig.noise_sigma = units::Volts{0.02};
  stats::Rng rng(5);
  const auto trace = analog::synthesize_frame_voltage(
      BitVector(40, true), sig, Environment::reference(), fast_options(),
      rng);
  stats::Welford acc;
  for (double v : trace) acc.add(v);
  EXPECT_NEAR(acc.stddev(), 0.02, 0.004);
}

TEST(Synth, MaxBitsTruncatesTrace) {
  stats::Rng rng(1);
  SynthOptions opts = fast_options();
  const auto full = analog::synthesize_frame_voltage(
      BitVector(40, true), quiet_signature(), Environment::reference(), opts,
      rng);
  opts.max_bits = 10;
  const auto truncated = analog::synthesize_frame_voltage(
      BitVector(40, true), quiet_signature(), Environment::reference(), opts,
      rng);
  EXPECT_LT(truncated.size(), full.size());
}

TEST(Synth, SampleCountMatchesRateAndDuration) {
  stats::Rng rng(1);
  SynthOptions opts = fast_options();
  opts.lead_in_bits = 2;
  opts.lead_out_bits = 1;
  const std::size_t nbits = 10;
  const auto trace = analog::synthesize_frame_voltage(
      BitVector(nbits, true), quiet_signature(), Environment::reference(),
      opts, rng);
  const double expected =
      (2.0 + 1.0 + nbits) / 250e3 * 20e6;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, 2.0);
}

TEST(Synth, ValidatesInput) {
  stats::Rng rng(1);
  EXPECT_THROW(analog::synthesize_frame_voltage({}, quiet_signature(),
                                                Environment::reference(),
                                                fast_options(), rng),
               std::invalid_argument);
  SynthOptions bad = fast_options();
  bad.bitrate = units::BitRateBps{0.0};
  EXPECT_THROW(
      analog::synthesize_frame_voltage(pulse_bits(), quiet_signature(),
                                       Environment::reference(), bad, rng),
      std::invalid_argument);
}

TEST(Signature, TemperatureShiftsDominantLevel) {
  EcuSignature sig = quiet_signature();
  sig.dominant_temp_coeff_v_per_c = -0.001;
  sig.temperature_coupling = 1.0;
  const EcuSignature hot =
      sig.under(Environment{
          units::Celsius{analog::kReferenceTemperature.value() + 10.0},
                            units::Volts{analog::kReferenceBattery.value()}});
  EXPECT_NEAR(hot.dominant.value(), sig.dominant.value() - 0.01, 1e-12);
}

TEST(Signature, CouplingScalesTemperatureEffect) {
  EcuSignature sig = quiet_signature();
  sig.dominant_temp_coeff_v_per_c = -0.001;
  sig.temperature_coupling = 0.5;
  const EcuSignature hot =
      sig.under(Environment{
          units::Celsius{analog::kReferenceTemperature.value() + 10.0},
                            units::Volts{analog::kReferenceBattery.value()}});
  EXPECT_NEAR(hot.dominant.value(), sig.dominant.value() - 0.005, 1e-12);
}

TEST(Signature, BatteryVoltageShiftsDominantLevel) {
  EcuSignature sig = quiet_signature();
  sig.dominant_vbat_coeff = 0.02;
  const EcuSignature high =
      sig.under(Environment{
          units::Celsius{analog::kReferenceTemperature.value()},
          units::Volts{analog::kReferenceBattery.value() + 1.0}});
  EXPECT_NEAR(high.dominant.value(), sig.dominant.value() + 0.02, 1e-12);
}

TEST(Signature, ReferenceEnvironmentIsIdentity) {
  const EcuSignature sig = quiet_signature();
  const EcuSignature same = sig.under(Environment::reference());
  EXPECT_DOUBLE_EQ(same.dominant.value(), sig.dominant.value());
  EXPECT_DOUBLE_EQ(same.drive.natural_freq_hz, sig.drive.natural_freq_hz);
}

TEST(Signature, TemperatureScalesEdgeFrequency) {
  EcuSignature sig = quiet_signature();
  sig.freq_temp_coeff_per_c = -0.002;
  sig.temperature_coupling = 1.0;
  const EcuSignature hot =
      sig.under(Environment{
          units::Celsius{analog::kReferenceTemperature.value() + 10.0},
                            units::Volts{analog::kReferenceBattery.value()}});
  EXPECT_NEAR(hot.drive.natural_freq_hz,
              sig.drive.natural_freq_hz * 0.98, 1.0);
}

TEST(EnvironmentPresets, MatchPaperMeasurements) {
  // §4.4: accessory mode 12.61 V, engine running 13.60 V.
  EXPECT_NEAR(analog::accessory_mode().battery.value(), 12.61, 1e-9);
  EXPECT_NEAR(analog::engine_running().battery.value(), 13.60, 1e-9);
  EXPECT_NEAR(analog::accessory_under_load(units::Volts{0.07}).battery.value(),
              12.54, 1e-9);
}

TEST(Synth, DifferentSignaturesProduceDistinguishableTraces) {
  // The Immutable ECU Property (Section 2.2.1): two devices, same frame,
  // different waveforms.
  stats::Rng rng(3);
  EcuSignature a = quiet_signature();
  EcuSignature b = quiet_signature();
  b.dominant = units::Volts{2.2};
  b.drive = {3.0e6, 0.55};
  canbus::DataFrame frame;
  frame.id = canbus::J1939Id{3, 100, 7};
  frame.payload = {1, 2, 3};
  const auto wire = canbus::build_wire_bits(frame);
  const auto ta = analog::synthesize_frame_voltage(
      wire, a, Environment::reference(), fast_options(), rng);
  const auto tb = analog::synthesize_frame_voltage(
      wire, b, Environment::reference(), fast_options(), rng);
  ASSERT_EQ(ta.size(), tb.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(ta[i] - tb[i]));
  }
  EXPECT_GT(max_diff, 0.15);
}

}  // namespace
