// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// invariants that must hold across the whole configuration space the
// paper explores — sampling rates, resolutions, metrics and vehicles.
#include <gtest/gtest.h>

#include "analog/synth.hpp"
#include "canbus/frame.hpp"
#include "canbus/stuffing.hpp"
#include "core/extractor.hpp"
#include "dsp/adc.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "stats/rng.hpp"
#include "oracles.hpp"

namespace {

// ---------------------------------------------------------------------
// Extraction invariants across digitizer operating points.
// ---------------------------------------------------------------------

struct FrontEndPoint {
  double sample_rate_hz;
  int resolution_bits;
};

class ExtractionSweep : public ::testing::TestWithParam<FrontEndPoint> {};

TEST_P(ExtractionSweep, SaDecodingAndDimensionInvariant) {
  const auto [rate, bits] = GetParam();
  const dsp::AdcModel adc(units::SampleRateHz{rate}, bits);
  analog::SynthOptions synth;
  synth.bitrate = units::BitRateBps{250e3};
  synth.sample_rate = units::SampleRateHz{rate};
  synth.max_bits = 70;
  const auto cfg =
      vprofile::make_extraction_config(units::SampleRateHz{rate},
                                       units::BitRateBps{250e3},
                                       adc.quantize(1.25));

  analog::EcuSignature sig;
  sig.dominant = units::Volts{2.0};
  sig.drive = {2.0e6, 0.7};
  sig.release = {1.0e6, 0.85};
  sig.noise_sigma = units::Volts{0.003};

  stats::Rng rng(static_cast<std::uint64_t>(rate) + bits);
  for (int trial = 0; trial < 40; ++trial) {
    canbus::DataFrame frame;
    frame.id = canbus::J1939Id{
        static_cast<std::uint8_t>(rng.below(8)),
        static_cast<std::uint32_t>(rng.below(0x40000)),
        static_cast<std::uint8_t>(rng.below(256))};
    frame.payload.resize(1 + rng.below(8));
    for (auto& b : frame.payload) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    const auto wire = canbus::build_wire_bits(frame);
    const auto volts = analog::synthesize_frame_voltage(
        wire, sig, analog::Environment::reference(), synth, rng);
    const auto es =
        vprofile::extract_edge_set(adc.quantize_trace(volts), cfg);
    ASSERT_TRUE(es.has_value())
        << "rate " << rate << " bits " << bits << " trial " << trial;
    // Property 1: the decoded SA always matches the transmitted SA.
    EXPECT_EQ(es->sa, frame.id.source_address);
    // Property 2: the dimension is the configured one.
    EXPECT_EQ(es->samples.size(), cfg.dimension());
    // Property 3: every sample is a representable ADC code.
    for (double v : es->samples) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, static_cast<double>(adc.max_code()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndResolutions, ExtractionSweep,
    ::testing::Values(FrontEndPoint{20e6, 16}, FrontEndPoint{20e6, 12},
                      FrontEndPoint{10e6, 16}, FrontEndPoint{10e6, 12},
                      FrontEndPoint{10e6, 10}, FrontEndPoint{5e6, 12},
                      FrontEndPoint{2.5e6, 12}, FrontEndPoint{2.5e6, 10}),
    [](const ::testing::TestParamInfo<FrontEndPoint>& info) {
      return std::to_string(
                 static_cast<int>(info.param.sample_rate_hz / 1e5)) +
             "x100kSps_" + std::to_string(info.param.resolution_bits) + "bit";
    });

// ---------------------------------------------------------------------
// Bit-stuffing round trip across run-length structures.
// ---------------------------------------------------------------------

class StuffingSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StuffingSweep, RoundTripsAllRunLengths) {
  const std::size_t run_len = GetParam();
  // Alternating runs of the parameterized length exercise every stuffing
  // boundary (runs of 5 trigger, shorter runs do not, longer runs split).
  for (bool start : {false, true}) {
    canbus::BitVector in;
    bool v = start;
    for (int block = 0; block < 12; ++block) {
      for (std::size_t i = 0; i < run_len; ++i) in.push_back(v);
      v = !v;
    }
    const auto stuffed = canbus::stuff(in);
    const auto out = oracle::destuff(stuffed);
    ASSERT_TRUE(out.has_value()) << "run length " << run_len;
    EXPECT_EQ(*out, in);
    // Property: stuffed output never contains six equal consecutive bits.
    std::size_t run = 1;
    for (std::size_t i = 1; i < stuffed.size(); ++i) {
      run = (stuffed[i] == stuffed[i - 1]) ? run + 1 : 1;
      EXPECT_LT(run, 6u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RunLengths, StuffingSweep,
                         ::testing::Range<std::size_t>(1, 12));

// ---------------------------------------------------------------------
// Incremental covariance equals batch covariance for any dimension.
// ---------------------------------------------------------------------

class CovarianceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CovarianceSweep, IncrementalMatchesBatch) {
  const std::size_t dim = GetParam();
  stats::Rng rng(dim);
  auto draw = [&] {
    linalg::Vector x(dim);
    for (auto& v : x) v = rng.gaussian(0.0, 2.0);
    // Introduce correlation so covariances are not near-diagonal.
    for (std::size_t i = 1; i < dim; ++i) x[i] += 0.5 * x[i - 1];
    return x;
  };

  linalg::CovarianceAccumulator seed(dim);
  const std::size_t seed_n = std::max<std::size_t>(2 * dim, 16);
  std::vector<linalg::Vector> history;
  for (std::size_t i = 0; i < seed_n; ++i) {
    history.push_back(draw());
    seed.add(history.back());
  }
  const auto chol = linalg::Cholesky::factorize(seed.covariance());
  ASSERT_TRUE(chol.has_value());
  linalg::IncrementalCovariance inc(seed.mean(), seed.covariance(),
                                    chol->inverse(), seed.count());

  linalg::CovarianceAccumulator batch(dim);
  for (const auto& x : history) batch.add(x);
  for (int i = 0; i < 30; ++i) {
    const auto x = draw();
    inc.update(x);
    batch.add(x);
  }
  EXPECT_LT(oracle::max_abs_diff(inc.covariance(), batch.covariance()),
            1e-8);
  const auto prod = oracle::matmul(inc.covariance(), inc.inverse());
  EXPECT_LT(oracle::max_abs_diff(prod, linalg::Matrix::identity(dim)),
            1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, CovarianceSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13,
                                                        21, 34));

// ---------------------------------------------------------------------
// Detection quality invariants per (vehicle, metric).
// ---------------------------------------------------------------------

struct DetectionPoint {
  char vehicle;
  vprofile::DistanceMetric metric;
};

class DetectionSweep : public ::testing::TestWithParam<DetectionPoint> {};

TEST_P(DetectionSweep, HijackRecallAlwaysHigh) {
  // Property: whatever the metric, the *hijack* test (cluster mismatch
  // between distinct ECUs) keeps recall high; the metrics differ in
  // precision and in the foreign test, not in gross misdetection.
  const auto [vehicle, metric] = GetParam();
  sim::Experiment exp(vehicle == 'a' ? sim::vehicle_a() : sim::vehicle_b(),
                      0xD00 + vehicle);
  sim::ExperimentParams p;
  p.metric = metric;
  p.train_count = 1200;
  p.test_count = 1800;
  const auto result = exp.hijack_test(p);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GE(result.confusion.recall(), 0.95)
      << "vehicle " << vehicle << " metric " << to_string(metric);
}

INSTANTIATE_TEST_SUITE_P(
    VehiclesAndMetrics, DetectionSweep,
    ::testing::Values(
        DetectionPoint{'a', vprofile::DistanceMetric::kMahalanobis},
        DetectionPoint{'a', vprofile::DistanceMetric::kEuclidean},
        DetectionPoint{'b', vprofile::DistanceMetric::kMahalanobis},
        DetectionPoint{'b', vprofile::DistanceMetric::kEuclidean}),
    [](const ::testing::TestParamInfo<DetectionPoint>& info) {
      return std::string(1, info.param.vehicle) + "_" +
             to_string(info.param.metric);
    });

// ---------------------------------------------------------------------
// Frame round trip across payload lengths.
// ---------------------------------------------------------------------

class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, FrameRoundTripsEveryLength) {
  const std::size_t len = GetParam();
  stats::Rng rng(len);
  for (int trial = 0; trial < 50; ++trial) {
    canbus::DataFrame f;
    f.id = canbus::J1939Id{
        static_cast<std::uint8_t>(rng.below(8)),
        static_cast<std::uint32_t>(rng.below(0x40000)),
        static_cast<std::uint8_t>(rng.below(256))};
    f.payload.resize(len);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.below(256));
    const auto parsed = oracle::parse_wire_bits(canbus::build_wire_bits(f));
    ASSERT_TRUE(parsed.has_value()) << "len " << len << " trial " << trial;
    EXPECT_EQ(*parsed, f);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PayloadSweep,
                         ::testing::Range<std::size_t>(0, 9));

}  // namespace
