// Parameterized sweeps over the analog substrate: invariants that must
// hold for every signature/environment combination the experiments visit.
#include <algorithm>
#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "analog/synth.hpp"
#include "canbus/frame.hpp"
#include "core/extractor.hpp"
#include "dsp/adc.hpp"
#include "sim/presets.hpp"
#include "stats/rng.hpp"
#include "stats/welford.hpp"

namespace {

canbus::BitVector test_wire() {
  canbus::DataFrame f;
  f.id = canbus::J1939Id{3, 0xF004, 0x55};
  f.payload = {0xA5, 0x5A};
  return canbus::build_wire_bits(f);
}

analog::SynthOptions quiet_options() {
  analog::SynthOptions o;
  o.bitrate = units::BitRateBps{250e3};
  o.sample_rate = units::SampleRateHz{20e6};
  o.max_bits = 40;
  o.sampling_phase_jitter = false;
  return o;
}

// ---------------------------------------------------------------------
// Temperature sweep: dominant level must fall monotonically with the
// (negative-coefficient) temperature for every coupling.
// ---------------------------------------------------------------------

class TemperatureSweep : public ::testing::TestWithParam<double> {};

TEST_P(TemperatureSweep, DominantLevelMonotoneInTemperature) {
  const double coupling = GetParam();
  analog::EcuSignature sig;
  sig.dominant = units::Volts{2.0};
  sig.drive = {2.0e6, 0.7};
  sig.release = {1.0e6, 0.85};
  sig.noise_sigma = units::Volts{0.0};
  sig.edge_jitter = units::Seconds{0.0};
  sig.dominant_temp_coeff_v_per_c = -0.001;
  sig.temperature_coupling = coupling;

  std::optional<double> prev_peak;  // none before the first temperature
  for (double temp : {-10.0, 0.0, 10.0, 25.0, 40.0}) {
    stats::Rng rng(1);
    const auto trace = analog::synthesize_frame_voltage(
        test_wire(), sig,
        analog::Environment{units::Celsius{temp}, units::Volts{12.6}},
        quiet_options(),
        rng);
    const double peak = *std::max_element(trace.begin(), trace.end());
    if (prev_peak && coupling > 0.0) {
      EXPECT_LT(peak, *prev_peak) << "temp " << temp;
    } else if (prev_peak) {
      EXPECT_NEAR(peak, *prev_peak, 1e-9);
    }
    prev_peak = peak;
  }
}

INSTANTIATE_TEST_SUITE_P(Couplings, TemperatureSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "coupling_" +
                                  std::to_string(
                                      static_cast<int>(info.param * 10));
                         });

// ---------------------------------------------------------------------
// Battery sweep: level rises with supply voltage for every coefficient.
// ---------------------------------------------------------------------

class BatterySweep : public ::testing::TestWithParam<double> {};

TEST_P(BatterySweep, DominantLevelMonotoneInSupply) {
  const double coeff = GetParam();
  analog::EcuSignature sig;
  sig.dominant = units::Volts{2.0};
  sig.drive = {2.0e6, 0.7};
  sig.release = {1.0e6, 0.85};
  sig.noise_sigma = units::Volts{0.0};
  sig.edge_jitter = units::Seconds{0.0};
  sig.dominant_vbat_coeff = coeff;

  double prev_peak = -1e9;
  for (double vbat : {11.5, 12.0, 12.6, 13.2, 14.0}) {
    stats::Rng rng(1);
    const auto trace = analog::synthesize_frame_voltage(
        test_wire(), sig,
        analog::Environment{units::Celsius{20.0}, units::Volts{vbat}},
        quiet_options(),
        rng);
    const double peak = *std::max_element(trace.begin(), trace.end());
    EXPECT_GT(peak, prev_peak) << "vbat " << vbat;
    prev_peak = peak;
  }
}

INSTANTIATE_TEST_SUITE_P(Coefficients, BatterySweep,
                         ::testing::Values(0.005, 0.012, 0.02),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "coeff_" +
                                  std::to_string(
                                      static_cast<int>(info.param * 1000));
                         });

// ---------------------------------------------------------------------
// Every preset ECU on both vehicles must produce extractable, correctly
// attributed edge sets under every evaluation environment.
// ---------------------------------------------------------------------

struct VehicleEnvPoint {
  char vehicle;
  double temperature_c;
  double battery_v;
};

class VehicleEnvSweep : public ::testing::TestWithParam<VehicleEnvPoint> {};

TEST_P(VehicleEnvSweep, EveryEcuExtractsUnderEnvironment) {
  const auto [vehicle_name, temp, vbat] = GetParam();
  const sim::VehicleConfig config =
      (vehicle_name == 'a') ? sim::vehicle_a() : sim::vehicle_b();
  sim::Vehicle vehicle(config, 4242);
  const auto extraction = sim::default_extraction(config);
  const analog::Environment env{units::Celsius{temp}, units::Volts{vbat}};

  for (std::size_t e = 0; e < config.ecus.size(); ++e) {
    canbus::DataFrame frame;
    frame.id = config.ecus[e].messages[0].id;
    frame.payload = {1, 2, 3};
    const auto cap = vehicle.synthesize_message(frame, e, env);
    const auto es = vprofile::extract_edge_set(cap.codes, extraction);
    ASSERT_TRUE(es.has_value()) << config.name << " ECU " << e;
    EXPECT_EQ(es->sa, frame.id.source_address) << config.name << " ECU " << e;
    EXPECT_EQ(es->samples.size(), extraction.dimension());
  }
}

INSTANTIATE_TEST_SUITE_P(
    VehiclesAndEnvironments, VehicleEnvSweep,
    ::testing::Values(VehicleEnvPoint{'a', -5.0, 13.6},
                      VehicleEnvPoint{'a', 25.0, 13.6},
                      VehicleEnvPoint{'a', 28.4, 12.54},
                      VehicleEnvPoint{'a', 40.0, 12.0},
                      VehicleEnvPoint{'b', -5.0, 13.6},
                      VehicleEnvPoint{'b', 25.0, 12.61},
                      VehicleEnvPoint{'b', 40.0, 14.0}),
    [](const ::testing::TestParamInfo<VehicleEnvPoint>& info) {
      const int t = static_cast<int>(info.param.temperature_c);
      return std::string(1, info.param.vehicle) + "_" +
             (t < 0 ? "m" + std::to_string(-t) : std::to_string(t)) + "C_" +
             std::to_string(static_cast<int>(info.param.battery_v * 10)) +
             "dV";
    });

// ---------------------------------------------------------------------
// Noise scaling: measured idle-trace spread tracks the configured sigma.
// ---------------------------------------------------------------------

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, IdleSpreadTracksConfiguredSigma) {
  const double sigma = GetParam();
  analog::EcuSignature sig;
  sig.dominant = units::Volts{2.0};
  sig.drive = {2.0e6, 0.7};
  sig.release = {1.0e6, 0.85};
  sig.noise_sigma = units::Volts{sigma};
  sig.edge_jitter = units::Seconds{0.0};

  stats::Rng rng(9);
  const auto trace = analog::synthesize_frame_voltage(
      canbus::BitVector(60, true), sig, analog::Environment::reference(),
      quiet_options(), rng);
  stats::Welford acc;
  for (double v : trace) acc.add(v);
  EXPECT_NEAR(acc.stddev(), sigma, sigma * 0.15 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseSweep,
                         ::testing::Values(0.0, 0.002, 0.008, 0.02),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "sigma_" +
                                  std::to_string(static_cast<int>(
                                      info.param * 10000));
                         });

}  // namespace
