#include <cmath>

#include <gtest/gtest.h>

#include "analog/two_tap.hpp"
#include "baseline/delay_locator.hpp"
#include "canbus/frame.hpp"
#include "dsp/adc.hpp"
#include "stats/rng.hpp"

namespace {

using analog::TwoTapBus;
using baseline::DelayEstimator;
using baseline::DelayLocatorIds;

analog::EcuSignature test_signature() {
  analog::EcuSignature s;
  s.dominant = units::Volts{2.0};
  s.drive = {2.0e6, 0.7};
  s.release = {1.0e6, 0.85};
  s.noise_sigma = units::Volts{0.003};
  return s;
}

analog::SynthOptions fast_options() {
  analog::SynthOptions o;
  o.bitrate = units::BitRateBps{250e3};
  o.sample_rate = units::SampleRateHz{20e6};
  o.max_bits = 40;
  return o;
}

canbus::DataFrame test_frame(std::uint8_t sa) {
  canbus::DataFrame f;
  f.id = canbus::J1939Id{3, 0xF004, sa};
  f.payload = {1, 2, 3, 4};
  return f;
}

TEST(TwoTapBusTest, SynthesizedTapsShareWaveformShape) {
  stats::Rng rng(1);
  TwoTapBus bus;
  const auto [a, b] = analog::synthesize_two_tap_voltage(
      canbus::build_wire_bits(test_frame(0x10)), test_signature(),
      analog::Environment::reference(), fast_options(), bus, 5.0, rng);
  ASSERT_EQ(a.size(), b.size());
  // At the centre both taps see the same delay; traces differ only by
  // noise.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  EXPECT_LT(max_diff, 0.05);
}

TEST(TwoTapBusTest, PositionValidation) {
  stats::Rng rng(2);
  TwoTapBus bus;
  EXPECT_THROW(analog::synthesize_two_tap_voltage(
                   canbus::build_wire_bits(test_frame(1)), test_signature(),
                   analog::Environment::reference(), fast_options(), bus,
                   -1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(analog::synthesize_two_tap_voltage(
                   canbus::build_wire_bits(test_frame(1)), test_signature(),
                   analog::Environment::reference(), fast_options(), bus,
                   99.0, rng),
               std::invalid_argument);
}

TEST(DelayEstimatorTest, RecoversKnownIntegerShift) {
  // b = a delayed by 3 samples.
  dsp::Trace a(400, 0.0);
  for (int i = 100; i < 200; ++i) a[i] = 1.0;
  dsp::Trace b(400, 0.0);
  for (int i = 103; i < 203; ++i) b[i] = 1.0;
  const DelayEstimator est(8, 1.0);  // 1 Hz => delay in samples
  const auto d = est.estimate(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 3.0, 0.05);
}

TEST(DelayEstimatorTest, RecoversSubSampleShiftFromPhysics) {
  // Synthesize the same frame at two positions 2 m apart; the recovered
  // delay difference must track the geometry (10 ns at 2e8 m/s).
  TwoTapBus bus;
  bus.length_m = 10.0;
  bus.attenuation_per_m = 0.0;
  const DelayEstimator est(8, 20e6);
  stats::Rng rng(3);

  auto measure = [&](double pos) {
    double sum = 0.0;
    const int reps = 20;
    for (int i = 0; i < reps; ++i) {
      const auto [a, b] = analog::synthesize_two_tap_voltage(
          canbus::build_wire_bits(test_frame(0x22)), test_signature(),
          analog::Environment::reference(), fast_options(), bus, pos, rng);
      const auto d = est.estimate(a, b);
      EXPECT_TRUE(d.has_value());
      sum += d.value_or(0.0);
    }
    return sum / reps;
  };
  const double d3 = measure(3.0);
  const double d5 = measure(5.0);
  const double d7 = measure(7.0);
  // Moving the node toward tap B makes tap A later relative to tap B:
  // delay(b relative to a) shrinks by 2*(dx)/v = 20 ns per 2 m.
  EXPECT_NEAR(d5 - d3, -20e-9, 6e-9);
  EXPECT_NEAR(d7 - d5, -20e-9, 6e-9);
  EXPECT_NEAR(d5, 0.0, 6e-9);  // centre: symmetric
}

TEST(DelayEstimatorTest, RejectsFlatAndShortInputs) {
  const DelayEstimator est(8, 20e6);
  EXPECT_FALSE(est.estimate(dsp::Trace(10, 0.0), dsp::Trace(10, 0.0)));
  EXPECT_FALSE(
      est.estimate(dsp::Trace(400, 1.0), dsp::Trace(400, 1.0)).has_value());
  EXPECT_THROW(DelayEstimator(0, 1.0), std::invalid_argument);
}

class DelayLocatorTest : public ::testing::Test {
 protected:
  DelayLocatorTest() {
    bus_.length_m = 10.0;
    options_.sample_rate_hz = 20e6;
    options_.max_lag_samples = 8;
  }

  DelayLocatorIds::TapPair capture(std::uint8_t sa, double pos,
                                   stats::Rng& rng) {
    auto [a, b] = analog::synthesize_two_tap_voltage(
        canbus::build_wire_bits(test_frame(sa)), test_signature(),
        analog::Environment::reference(), fast_options(), bus_, pos, rng);
    return {std::move(a), std::move(b), sa};
  }

  TwoTapBus bus_;
  DelayLocatorIds::Options options_;
};

TEST_F(DelayLocatorTest, TrainsAndAcceptsLegitimatePositions) {
  stats::Rng rng(5);
  std::vector<DelayLocatorIds::TapPair> training;
  for (int i = 0; i < 30; ++i) {
    training.push_back(capture(0x10, 1.0, rng));   // node near tap A
    training.push_back(capture(0x20, 8.5, rng));   // node near tap B
  }
  DelayLocatorIds ids(options_);
  std::string error;
  ASSERT_TRUE(ids.train(training, &error)) << error;

  std::size_t false_alarms = 0;
  double near_a_delay = 0.0;
  for (int i = 0; i < 30; ++i) {
    const auto pair = capture(0x10, 1.0, rng);
    const auto c = ids.classify(pair.tap_a, pair.tap_b, 0x10);
    ASSERT_TRUE(c.has_value());
    false_alarms += c->anomaly;
    near_a_delay = c->delay_s;
  }
  EXPECT_LE(false_alarms, 1u);

  // The node near tap B is accepted at its own position, and its delay
  // difference sits below the one near tap A.
  const auto pair = capture(0x20, 8.5, rng);
  const auto near_b = ids.classify(pair.tap_a, pair.tap_b, 0x20);
  ASSERT_TRUE(near_b.has_value());
  EXPECT_FALSE(near_b->anomaly);
  EXPECT_LT(near_b->delay_s, near_a_delay);
}

TEST_F(DelayLocatorTest, DetectsWrongPositionImitation) {
  // A foreign device at the OBD port (position ~9.5 m) imitating an ECU
  // fingerprinted at 1 m: the position cannot be faked.
  stats::Rng rng(6);
  std::vector<DelayLocatorIds::TapPair> training;
  for (int i = 0; i < 30; ++i) training.push_back(capture(0x10, 1.0, rng));
  DelayLocatorIds ids(options_);
  std::string error;
  ASSERT_TRUE(ids.train(training, &error)) << error;

  std::size_t detected = 0;
  for (int i = 0; i < 20; ++i) {
    const auto pair = capture(0x10, 9.5, rng);  // same SA, wrong place
    const auto c = ids.classify(pair.tap_a, pair.tap_b, 0x10);
    ASSERT_TRUE(c.has_value());
    detected += c->anomaly;
  }
  EXPECT_GE(detected, 18u);
}

TEST_F(DelayLocatorTest, UnknownSaReturnsNullopt) {
  stats::Rng rng(7);
  std::vector<DelayLocatorIds::TapPair> training;
  for (int i = 0; i < 20; ++i) training.push_back(capture(0x10, 2.0, rng));
  DelayLocatorIds ids(options_);
  std::string error;
  ASSERT_TRUE(ids.train(training, &error)) << error;
  const auto pair = capture(0x10, 2.0, rng);
  EXPECT_FALSE(ids.classify(pair.tap_a, pair.tap_b, 0x99).has_value());
}

TEST_F(DelayLocatorTest, TrainingValidatesSampleCounts) {
  stats::Rng rng(8);
  std::vector<DelayLocatorIds::TapPair> training;
  for (int i = 0; i < 3; ++i) training.push_back(capture(0x10, 2.0, rng));
  DelayLocatorIds ids(options_);
  std::string error;
  EXPECT_FALSE(ids.train(training, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ids.train({}, &error));
}

}  // namespace
