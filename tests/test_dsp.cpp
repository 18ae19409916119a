#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "dsp/adc.hpp"
#include "dsp/fir.hpp"
#include "dsp/resample.hpp"
#include "dsp/trace.hpp"

namespace {

using dsp::AdcModel;
using dsp::Trace;

TEST(Adc, QuantizesRailsToCodeRange) {
  const AdcModel adc(units::SampleRateHz{10e6}, 12, units::Volts{-1.0},
                     units::Volts{3.0});
  EXPECT_DOUBLE_EQ(adc.quantize(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(adc.quantize(3.0), 4095.0);
  EXPECT_DOUBLE_EQ(adc.quantize(-5.0), 0.0);   // clamps below
  EXPECT_DOUBLE_EQ(adc.quantize(99.0), 4095.0);  // clamps above
}

TEST(Adc, MidScaleValue) {
  const AdcModel adc(units::SampleRateHz{10e6}, 16, units::Volts{-1.0},
                     units::Volts{3.0});
  // 1.0 V is exactly halfway through [-1, 3].
  EXPECT_NEAR(adc.quantize(1.0), 65535.0 / 2.0, 1.0);
}

TEST(Adc, RoundTripWithinHalfLsb) {
  const AdcModel adc(units::SampleRateHz{10e6}, 12, units::Volts{-1.0},
                     units::Volts{3.0});
  const double lsb = 4.0 / 4095.0;
  for (double v = -0.9; v < 2.9; v += 0.137) {
    // The centre voltage of the code's quantization bin.
    const double centre = -1.0 + adc.quantize(v) * lsb;
    EXPECT_NEAR(centre, v, lsb / 2.0 + 1e-12);
  }
}

TEST(Adc, PaperThresholdLandsMidEdgeFor16Bit) {
  // The paper's Fig 2.5 threshold of 38000 (16-bit) should sit between the
  // recessive (~0 V) and dominant (~2 V) code levels with this range.
  const AdcModel adc(units::SampleRateHz{20e6}, 16);
  const double rec = adc.quantize(0.0);
  const double dom = adc.quantize(2.0);
  EXPECT_GT(38000.0, rec);
  EXPECT_LT(38000.0, dom);
}

TEST(Adc, LowerResolutionCoarsensCodes) {
  const AdcModel adc16(units::SampleRateHz{10e6}, 16, units::Volts{-1.0},
                       units::Volts{3.0});
  const AdcModel adc8(units::SampleRateHz{10e6}, 8, units::Volts{-1.0},
                      units::Volts{3.0});
  EXPECT_EQ(adc8.max_code(), 255u);
  EXPECT_EQ(adc8.resolution_bits(), 8);
  // Two voltages 1 mV apart land on distinct 16-bit codes (one 16-bit
  // LSB is 61 uV) but share one 8-bit code (one LSB is 15.7 mV).
  EXPECT_NE(adc16.quantize(0.5), adc16.quantize(0.501));
  EXPECT_EQ(adc8.quantize(0.5), adc8.quantize(0.501));
}

TEST(Adc, ValidatesConstruction) {
  EXPECT_THROW(AdcModel(units::SampleRateHz{0.0}, 12), std::invalid_argument);
  EXPECT_THROW(AdcModel(units::SampleRateHz{1e6}, 1), std::invalid_argument);
  EXPECT_THROW(AdcModel(units::SampleRateHz{1e6}, 25), std::invalid_argument);
  EXPECT_THROW(AdcModel(units::SampleRateHz{1e6}, 12, units::Volts{3.0},
                        units::Volts{-1.0}),
               std::invalid_argument);
}

TEST(Adc, QuantizeTraceMapsAllSamples) {
  const AdcModel adc(units::SampleRateHz{10e6}, 12, units::Volts{-1.0},
                     units::Volts{3.0});
  const Trace out = adc.quantize_trace({0.0, 1.0, 2.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], adc.quantize(0.0));
  EXPECT_DOUBLE_EQ(out[2], adc.quantize(2.0));
}

TEST(Requantize, DropsLsbsKeepingScale) {
  // 16 -> 14 bits: codes snap to multiples of 4.
  const Trace out = dsp::requantize_codes({5.0, 38001.0, 65535.0}, 16, 14);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
  EXPECT_DOUBLE_EQ(out[1], 38000.0);
  EXPECT_DOUBLE_EQ(out[2], 65532.0);
}

TEST(Requantize, SameWidthIsIdentity) {
  const Trace in = {1.0, 2.0, 3.0};
  EXPECT_EQ(dsp::requantize_codes(in, 12, 12), in);
}

TEST(Requantize, ValidatesWidths) {
  EXPECT_THROW(dsp::requantize_codes({1.0}, 10, 12), std::invalid_argument);
  EXPECT_THROW(dsp::requantize_codes({1.0}, 0, 0), std::invalid_argument);
}

TEST(Requantize, CollapsesSubStepVariation) {
  // Variation smaller than the new step disappears — the mechanism behind
  // the paper's singular covariance matrices at low resolutions.
  Trace in;
  for (int i = 0; i < 16; ++i) in.push_back(1000.0 + i);  // +-16 codes
  const Trace out = dsp::requantize_codes(in, 16, 10);    // step 64
  for (double v : out) EXPECT_DOUBLE_EQ(v, 960.0);
}

TEST(Downsample, KeepsEveryKth) {
  const Trace out = dsp::downsample({0, 1, 2, 3, 4, 5, 6, 7}, 3);
  EXPECT_EQ(out, (Trace{0, 3, 6}));
}

TEST(Downsample, PhaseOffsetsStart) {
  const Trace out = dsp::downsample({0, 1, 2, 3, 4, 5}, 2, 1);
  EXPECT_EQ(out, (Trace{1, 3, 5}));
}

TEST(Downsample, FactorOneIsIdentity) {
  const Trace in = {5, 6, 7};
  EXPECT_EQ(dsp::downsample(in, 1), in);
}

TEST(Downsample, Validates) {
  EXPECT_THROW(dsp::downsample({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(dsp::downsample({1.0}, 2, 2), std::invalid_argument);
}

TEST(FindSof, LocatesFirstCrossing) {
  const Trace t = {0, 0, 0, 100, 100, 0};
  const auto sof = dsp::find_sof(t, 50.0);
  ASSERT_TRUE(sof.has_value());
  EXPECT_EQ(*sof, 3u);
}

TEST(FindSof, NoCrossingReturnsNullopt) {
  EXPECT_FALSE(dsp::find_sof({0, 1, 2}, 50.0).has_value());
  EXPECT_FALSE(dsp::find_sof({}, 50.0).has_value());
}

TEST(AlignToEdgeStart, WalksBackToCrossing) {
  //             0  1  2    3    4    5
  const Trace t = {0, 0, 100, 100, 100, 0};
  EXPECT_EQ(dsp::align_to_edge_start(t, 4, 50.0), 2u);
  EXPECT_EQ(dsp::align_to_edge_start(t, 1, 50.0), 0u);
}

TEST(AlignToEdgeStart, HandlesEdgesOfTrace) {
  const Trace t = {100, 100};
  EXPECT_EQ(dsp::align_to_edge_start(t, 10, 50.0), 0u);  // clamped pos
  EXPECT_EQ(dsp::align_to_edge_start({}, 0, 50.0), 0u);
}

TEST(Fir, PreservesDcLevel) {
  const dsp::FirLowPass lp(1e6, 10e6, 31);
  const Trace out = lp.apply(Trace(100, 5.0));
  for (double v : out) EXPECT_NEAR(v, 5.0, 1e-9);
}

TEST(Fir, AttenuatesHighFrequency) {
  const dsp::FirLowPass lp(0.5e6, 10e6, 63);
  // Nyquist-rate alternating signal should be strongly attenuated.
  Trace in(200);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const Trace out = lp.apply(in);
  double max_abs = 0.0;
  for (std::size_t i = 50; i < 150; ++i) {
    max_abs = std::max(max_abs, std::fabs(out[i]));
  }
  EXPECT_LT(max_abs, 0.05);
}

TEST(Fir, PassesLowFrequency) {
  const dsp::FirLowPass lp(2e6, 10e6, 63);
  // 100 kHz sine sampled at 10 MHz is far below cutoff.
  Trace in(400);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(2.0 * M_PI * 1e5 * static_cast<double>(i) / 10e6);
  }
  const Trace out = lp.apply(in);
  for (std::size_t i = 100; i < 300; ++i) {
    EXPECT_NEAR(out[i], in[i], 0.02);
  }
}

TEST(Fir, OutputLengthMatchesInput) {
  const dsp::FirLowPass lp(1e6, 10e6, 15);
  EXPECT_EQ(lp.apply(Trace(37, 1.0)).size(), 37u);
  EXPECT_TRUE(lp.apply({}).empty());
}

TEST(Fir, ValidatesParameters) {
  EXPECT_THROW(dsp::FirLowPass(0.0, 10e6, 31), std::invalid_argument);
  EXPECT_THROW(dsp::FirLowPass(6e6, 10e6, 31), std::invalid_argument);
  EXPECT_THROW(dsp::FirLowPass(1e6, 10e6, 30), std::invalid_argument);
  EXPECT_THROW(dsp::FirLowPass(1e6, 10e6, 1), std::invalid_argument);
}

TEST(Fir, TapsSumToUnity) {
  // Unity DC gain: a constant input passes through unchanged.
  const dsp::FirLowPass lp(1e6, 10e6, 21);
  for (double v : lp.apply(Trace(64, 1.0))) EXPECT_NEAR(v, 1.0, 1e-12);
}

}  // namespace
