#include "sim/presets.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/extractor.hpp"

namespace sim {
namespace {

using analog::EcuSignature;
using canbus::J1939Id;
using canbus::PeriodicMessage;

PeriodicMessage msg(std::uint8_t priority, std::uint32_t pgn, std::uint8_t sa,
                    double period_s, std::size_t node) {
  PeriodicMessage m;
  m.id = J1939Id{priority, pgn, sa};
  m.period_s = period_s;
  m.jitter_s = period_s * 0.02;
  m.node = node;
  m.payload_len = 8;
  return m;
}

}  // namespace

VehicleConfig vehicle_a() {
  VehicleConfig cfg;
  cfg.name = "Vehicle A";
  cfg.bitrate = units::BitRateBps{250.0e3};
  cfg.adc = dsp::AdcModel(units::SampleRateHz{20.0e6}, 16);

  // ECU 0: engine control module, mounted on the engine block — full
  // temperature coupling and the strongest level drift (Fig 4.6).
  EcuSignature ecm;
  ecm.dominant = units::Volts{2.10};
  ecm.recessive = units::Volts{0.005};
  ecm.drive = {2.30e6, 0.60};
  ecm.release = {1.15e6, 0.82};
  ecm.noise_sigma = units::Volts{0.003};
  ecm.dominant_temp_coeff_v_per_c = -0.00015;
  ecm.freq_temp_coeff_per_c = -0.0004;
  ecm.temperature_coupling = 1.0;
  ecm.dominant_vbat_coeff = 0.014;

  // ECU 1: transmission controller.  Paired with ECU 4 as the most-similar
  // profiles: identical edge timing, slightly different damping
  // (overshoot) and dominant level.
  EcuSignature trans;
  trans.dominant = units::Volts{1.920};
  trans.recessive = units::Volts{0.000};
  trans.drive = {1.88e6, 0.76};
  trans.release = {0.95e6, 0.88};
  trans.noise_sigma = units::Volts{0.0028};
  trans.dominant_temp_coeff_v_per_c = -0.00010;
  trans.freq_temp_coeff_per_c = -0.00013;
  trans.temperature_coupling = 0.25;
  trans.dominant_vbat_coeff = 0.011;

  // ECU 2: brake controller, engine-bay mounted — strong temperature
  // response (the second "drastic" trace in Fig 4.6).
  EcuSignature brake;
  brake.dominant = units::Volts{2.28};
  brake.recessive = units::Volts{0.012};
  brake.drive = {2.90e6, 0.52};
  brake.release = {1.40e6, 0.78};
  brake.noise_sigma = units::Volts{0.0032};
  brake.dominant_temp_coeff_v_per_c = -0.00013;
  brake.freq_temp_coeff_per_c = -0.00033;
  brake.temperature_coupling = 0.9;
  brake.dominant_vbat_coeff = 0.016;

  // ECU 3: body controller, cabin mounted.
  EcuSignature body;
  body.dominant = units::Volts{1.78};
  body.recessive = units::Volts{-0.004};
  body.drive = {1.50e6, 0.82};
  body.release = {0.85e6, 0.90};
  body.noise_sigma = units::Volts{0.0026};
  body.dominant_temp_coeff_v_per_c = -0.00010;
  body.freq_temp_coeff_per_c = -0.00013;
  body.temperature_coupling = 0.30;
  body.dominant_vbat_coeff = 0.010;

  // ECU 4: instrument cluster — ECU 1's near twin.
  EcuSignature cluster;
  cluster.dominant = units::Volts{1.945};
  cluster.recessive = units::Volts{0.002};
  cluster.drive = {1.88e6, 0.70};
  cluster.release = {0.95e6, 0.84};
  cluster.noise_sigma = units::Volts{0.0028};
  cluster.dominant_temp_coeff_v_per_c = -0.00010;
  cluster.freq_temp_coeff_per_c = -0.00013;
  cluster.temperature_coupling = 0.20;
  cluster.dominant_vbat_coeff = 0.012;

  // Per-ECU oscillator skews (ppm): distinct, within crystal tolerance.
  cfg.ecus = {
      {"ECU 0", ecm, {msg(3, 0x000, 0x00, 0.020, 0),
                      msg(6, 0xFEEE, 0x00, 0.250, 0)}, 34.0},
      {"ECU 1", trans, {msg(3, 0xF005, 0x03, 0.050, 1),
                        msg(6, 0xFEC1, 0x05, 0.200, 1)}, -51.0},
      {"ECU 2", brake, {msg(2, 0xF001, 0x0B, 0.050, 2)}, 12.0},
      {"ECU 3", body, {msg(6, 0xFE70, 0x21, 0.150, 3),
                       msg(6, 0xFED0, 0x31, 0.400, 3)}, -8.0},
      {"ECU 4", cluster, {msg(6, 0xFEF1, 0x17, 0.100, 4)}, 72.0},
  };
  return cfg;
}

VehicleConfig vehicle_b(std::uint64_t seed) {
  VehicleConfig cfg;
  cfg.name = "Vehicle B";
  cfg.bitrate = units::BitRateBps{250.0e3};
  cfg.adc = dsp::AdcModel(units::SampleRateHz{10.0e6}, 12);

  stats::Rng rng(seed);

  // Ten ECUs with deliberately close profiles: dominant levels ~13 mV
  // apart and overlapping edge dynamics.  Small per-seed jitter keeps the
  // spacing irregular without letting profiles collide.
  static constexpr std::uint8_t kSas[10] = {0x00, 0x03, 0x0B, 0x10, 0x17,
                                            0x21, 0x25, 0x31, 0x42, 0x55};
  static constexpr std::uint32_t kPgns[10] = {
      0x000, 0xF005, 0xF001, 0xFE40, 0xFEF1,
      0xFE70, 0xFEE5, 0xFED0, 0xFEB0, 0xFEA0};

  for (int i = 0; i < 10; ++i) {
    EcuSignature s;
    s.dominant = units::Volts{1.78 + 0.068 * i + rng.uniform(-0.002, 0.002)};
    s.recessive = units::Volts{rng.uniform(-0.004, 0.004)};
    const double freq = 1.72e6 * (1.0 + 0.012 * i) *
                        (1.0 + rng.uniform(-0.006, 0.006));
    s.drive = {freq, std::clamp(0.64 + 0.018 * i +
                                    rng.uniform(-0.008, 0.008),
                                0.4, 0.95)};
    s.release = {freq * 0.52, std::clamp(0.80 + 0.008 * i, 0.5, 0.95)};
    s.noise_sigma = units::Volts{0.004 * (1.0 + rng.uniform(-0.1, 0.1))};
    s.edge_jitter = units::Seconds{4.0e-9};
    s.dominant_temp_coeff_v_per_c = -0.00012 * (1.0 + rng.uniform(-0.3, 0.3));
    s.freq_temp_coeff_per_c = -0.0002;
    s.temperature_coupling = rng.uniform(0.2, 0.9);
    s.dominant_vbat_coeff = 0.012 * (1.0 + rng.uniform(-0.3, 0.3));

    EcuSpec ecu;
    ecu.name = "ECU " + std::to_string(i);
    ecu.signature = s;
    ecu.clock_skew_ppm = rng.uniform(-80.0, 80.0);
    const double period = 0.040 + 0.030 * i;
    ecu.messages = {msg(static_cast<std::uint8_t>(2 + (i % 5)), kPgns[i],
                        kSas[i], period, static_cast<std::size_t>(i))};
    cfg.ecus.push_back(std::move(ecu));
  }
  return cfg;
}

double default_bit_threshold(const VehicleConfig& config) {
  double mean_dom = 0.0;
  for (const auto& ecu : config.ecus) {
    mean_dom += ecu.signature.dominant.value();
  }
  mean_dom /= static_cast<double>(config.ecus.size());
  // Same full-scale fraction as the paper's 38000-of-65535 for a ~2.1 V
  // dominant level: ~63% of the dominant swing.
  return config.adc.quantize(0.63 * mean_dom);
}

vprofile::ExtractionConfig default_extraction(const VehicleConfig& config) {
  return vprofile::make_extraction_config(config.adc.sample_rate(),
                                          config.bitrate,
                                          default_bit_threshold(config));
}

vprofile::TrainOutcome train_on_clean_traffic(Vehicle& vehicle,
                                              std::size_t count,
                                              const analog::Environment& env,
                                              vprofile::TrainingConfig config) {
  config.extraction = default_extraction(vehicle.config());
  std::vector<vprofile::EdgeSet> edge_sets;
  edge_sets.reserve(count);
  for (const Capture& cap : vehicle.capture(count, env)) {
    if (auto es = vprofile::extract_edge_set(cap.codes, config.extraction)) {
      edge_sets.push_back(std::move(*es));
    }
  }
  return vprofile::train_with_database(edge_sets, vehicle.database(), config);
}

}  // namespace sim
