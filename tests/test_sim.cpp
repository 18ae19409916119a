#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "sim/attack.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

using sim::Capture;
using sim::Vehicle;
using sim::VehicleConfig;

TEST(Presets, VehicleAHasFiveEcus) {
  const VehicleConfig cfg = sim::vehicle_a();
  EXPECT_EQ(cfg.ecus.size(), 5u);
  EXPECT_DOUBLE_EQ(cfg.adc.sample_rate().value(), 20e6);
  EXPECT_EQ(cfg.adc.resolution_bits(), 16);
  EXPECT_DOUBLE_EQ(cfg.bitrate.value(), 250e3);
}

TEST(Presets, VehicleBHasTenEcusAtTenMsps) {
  const VehicleConfig cfg = sim::vehicle_b();
  EXPECT_EQ(cfg.ecus.size(), 10u);
  EXPECT_DOUBLE_EQ(cfg.adc.sample_rate().value(), 10e6);
  EXPECT_EQ(cfg.adc.resolution_bits(), 12);
}

TEST(Presets, VehicleASasAreUniquePerEcu) {
  const VehicleConfig cfg = sim::vehicle_a();
  std::set<std::uint8_t> seen;
  for (const auto& ecu : cfg.ecus) {
    for (std::uint8_t sa : ecu.source_addresses()) {
      EXPECT_TRUE(seen.insert(sa).second) << "duplicate SA " << int(sa);
    }
  }
}

TEST(Presets, VehicleBProfilesAreCloserThanVehicleA) {
  // The design premise: Vehicle B's signatures are less distinct.  The
  // dissimilarity is a crude normalized distance over the levels and the
  // edge dynamics (detection itself never sees these parameters).
  auto parameter_distance = [](const analog::EcuSignature& a,
                               const analog::EcuSignature& b) {
    const double dl = (a.dominant - b.dominant).value() / 0.1;
    const double dr = (a.recessive - b.recessive).value() / 0.02;
    const double df = (a.drive.natural_freq_hz - b.drive.natural_freq_hz) /
                      (0.2 * a.drive.natural_freq_hz);
    const double dz = (a.drive.damping - b.drive.damping) / 0.1;
    const double dff =
        (a.release.natural_freq_hz - b.release.natural_freq_hz) /
        (0.2 * a.release.natural_freq_hz);
    const double dzz = (a.release.damping - b.release.damping) / 0.1;
    return std::sqrt(dl * dl + dr * dr + df * df + dz * dz + dff * dff +
                     dzz * dzz);
  };
  auto min_pairwise = [&](const VehicleConfig& cfg) {
    double best = 1e300;
    for (std::size_t i = 0; i < cfg.ecus.size(); ++i) {
      for (std::size_t j = i + 1; j < cfg.ecus.size(); ++j) {
        best = std::min(best, parameter_distance(cfg.ecus[i].signature,
                                                 cfg.ecus[j].signature));
      }
    }
    return best;
  };
  EXPECT_LT(min_pairwise(sim::vehicle_b()), min_pairwise(sim::vehicle_a()));
}

TEST(Presets, DefaultThresholdBetweenRecessiveAndDominant) {
  for (const VehicleConfig& cfg : {sim::vehicle_a(), sim::vehicle_b()}) {
    const double threshold = sim::default_bit_threshold(cfg);
    EXPECT_GT(threshold, cfg.adc.quantize(0.5));
    EXPECT_LT(threshold, cfg.adc.quantize(1.8));
  }
}

TEST(Presets, VehicleBSeedChangesSignaturesNotStructure) {
  const VehicleConfig a = sim::vehicle_b(1);
  const VehicleConfig b = sim::vehicle_b(2);
  ASSERT_EQ(a.ecus.size(), b.ecus.size());
  EXPECT_NE(a.ecus[0].signature.dominant.value(),
            b.ecus[0].signature.dominant.value());
  EXPECT_EQ(a.ecus[0].source_addresses(), b.ecus[0].source_addresses());
}

TEST(VehicleTest, DatabaseCoversAllSas) {
  Vehicle vehicle(sim::vehicle_a(), 1);
  const auto db = vehicle.database();
  for (const auto& ecu : vehicle.config().ecus) {
    for (std::uint8_t sa : ecu.source_addresses()) {
      ASSERT_TRUE(db.count(sa));
      EXPECT_EQ(db.at(sa), ecu.name);
    }
  }
}

TEST(VehicleTest, CaptureProducesRequestedCount) {
  Vehicle vehicle(sim::vehicle_a(), 2);
  const auto caps = vehicle.capture(50, analog::Environment::reference());
  EXPECT_EQ(caps.size(), 50u);
  for (const auto& cap : caps) {
    EXPECT_FALSE(cap.codes.empty());
    EXPECT_LT(cap.true_ecu, vehicle.config().ecus.size());
  }
}

TEST(VehicleTest, CapturesComeFromAllEcus) {
  Vehicle vehicle(sim::vehicle_a(), 3);
  std::set<std::size_t> senders;
  for (const auto& cap :
       vehicle.capture(400, analog::Environment::reference())) {
    senders.insert(cap.true_ecu);
  }
  EXPECT_EQ(senders.size(), vehicle.config().ecus.size());
}

TEST(VehicleTest, CodesStayWithinAdcRange) {
  Vehicle vehicle(sim::vehicle_b(), 4);
  const double max_code = vehicle.config().adc.max_code();
  for (const auto& cap :
       vehicle.capture(30, analog::Environment::reference())) {
    for (double c : cap.codes) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, max_code);
    }
  }
}

TEST(VehicleTest, DeterministicWithSameSeed) {
  Vehicle v1(sim::vehicle_a(), 77);
  Vehicle v2(sim::vehicle_a(), 77);
  const auto a = v1.capture(10, analog::Environment::reference());
  const auto b = v2.capture(10, analog::Environment::reference());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].codes, b[i].codes);
    EXPECT_EQ(a[i].true_ecu, b[i].true_ecu);
  }
}

TEST(VehicleTest, EnvironmentScheduleIsApplied) {
  // A big temperature step mid-capture must shift the dominant level of
  // the strongly coupled ECM (ECU 0).
  Vehicle vehicle(sim::vehicle_a(), 5);
  auto env_at = [](double t) {
    return analog::Environment{units::Celsius{t < 0.5 ? 20.0 : 120.0},
                               units::Volts{12.6}};
  };
  const auto caps = vehicle.capture_with_env(600, env_at);
  double early_max = 0.0;
  double late_max = 0.0;
  for (const auto& cap : caps) {
    if (cap.true_ecu != 0) continue;
    const double peak =
        *std::max_element(cap.codes.begin(), cap.codes.end());
    (cap.time_s < 0.5 ? early_max : late_max) =
        std::max(cap.time_s < 0.5 ? early_max : late_max, peak);
  }
  ASSERT_GT(early_max, 0.0);
  ASSERT_GT(late_max, 0.0);
  EXPECT_LT(late_max, early_max);  // negative temperature coefficient
}

TEST(VehicleTest, SynthesizeMessageValidatesIndex) {
  Vehicle vehicle(sim::vehicle_a(), 6);
  canbus::DataFrame f;
  f.id = canbus::J1939Id{3, 1, 2};
  EXPECT_THROW(vehicle.synthesize_message(f, 99,
                                          analog::Environment::reference()),
               std::out_of_range);
}

TEST(VehicleTest, ConstructorValidatesConfig) {
  VehicleConfig cfg = sim::vehicle_a();
  cfg.ecus.clear();
  EXPECT_THROW(Vehicle(cfg, 1), std::invalid_argument);

  VehicleConfig bad_node = sim::vehicle_a();
  bad_node.ecus[0].messages[0].node = 3;
  EXPECT_THROW(Vehicle(bad_node, 1), std::invalid_argument);

  VehicleConfig dup_sa = sim::vehicle_a();
  dup_sa.ecus[1].messages[0].id.source_address =
      dup_sa.ecus[0].messages[0].id.source_address;
  EXPECT_THROW(Vehicle(dup_sa, 1), std::invalid_argument);
}

TEST(AttackTest, NormalStreamIsAllNormal) {
  Vehicle vehicle(sim::vehicle_a(), 7);
  const auto stream =
      sim::make_normal_stream(vehicle, 50, analog::Environment::reference());
  EXPECT_EQ(stream.size(), 50u);
  for (const auto& lc : stream) EXPECT_FALSE(lc.is_attack);
}

TEST(AttackTest, HijackRateApproximatesProbability) {
  Vehicle vehicle(sim::vehicle_a(), 8);
  const auto stream = sim::make_hijack_stream(
      vehicle, 3000, 0.2, analog::Environment::reference());
  std::size_t attacks = 0;
  for (const auto& lc : stream) attacks += lc.is_attack;
  EXPECT_NEAR(static_cast<double>(attacks) /
                  static_cast<double>(stream.size()),
              0.2, 0.03);
}

TEST(AttackTest, HijackedSaBelongsToDifferentEcu) {
  Vehicle vehicle(sim::vehicle_a(), 9);
  const auto db = vehicle.database();
  const auto stream = sim::make_hijack_stream(
      vehicle, 600, 0.5, analog::Environment::reference());
  for (const auto& lc : stream) {
    if (!lc.is_attack) continue;
    const std::string& claimed =
        db.at(lc.capture.frame.id.source_address);
    const std::string& actual =
        vehicle.config().ecus[lc.capture.true_ecu].name;
    EXPECT_NE(claimed, actual);
  }
}

TEST(AttackTest, ForeignStreamReplacesImitatorTraffic) {
  Vehicle vehicle(sim::vehicle_a(), 10);
  const std::size_t imitator = 1;
  const std::size_t target = 4;
  const auto target_sas = vehicle.config().ecus[target].source_addresses();
  const auto stream = sim::make_foreign_stream(
      vehicle, imitator, target, 800, analog::Environment::reference());
  std::size_t attacks = 0;
  for (const auto& lc : stream) {
    if (lc.capture.true_ecu == imitator) {
      EXPECT_TRUE(lc.is_attack);
      EXPECT_NE(std::find(target_sas.begin(), target_sas.end(),
                          lc.capture.frame.id.source_address),
                target_sas.end());
      ++attacks;
    } else {
      EXPECT_FALSE(lc.is_attack);
    }
  }
  EXPECT_GT(attacks, 0u);
}

TEST(AttackTest, ValidatesArguments) {
  Vehicle vehicle(sim::vehicle_a(), 11);
  EXPECT_THROW(sim::make_foreign_stream(vehicle, 1, 1, 10,
                                        analog::Environment::reference()),
               std::invalid_argument);
  EXPECT_THROW(sim::make_foreign_stream(vehicle, 99, 0, 10,
                                        analog::Environment::reference()),
               std::invalid_argument);
}

TEST(MarginSelection, ScoreAtMarginFlipsExcessMessages) {
  std::vector<sim::ScoredMessage> msgs = {
      {false, false, -1.0},  // normal, inside threshold
      {false, false, 2.0},   // normal, slightly outside
      {true, true, 0.0},     // hard anomaly (mismatch)
      {true, false, 5.0},    // attack beyond threshold
  };
  const auto strict = sim::score_at_margin(msgs, 0.0);
  EXPECT_EQ(strict.false_positives(), 1u);
  EXPECT_EQ(strict.true_positives(), 2u);
  const auto mid = sim::score_at_margin(msgs, 3.0);
  EXPECT_EQ(mid.false_positives(), 0u);
  EXPECT_EQ(mid.true_positives(), 2u);  // excess-5 attack still caught
  const auto lax = sim::score_at_margin(msgs, 6.0);
  EXPECT_EQ(lax.true_positives(), 1u);  // only the hard anomaly remains
  EXPECT_EQ(lax.false_negatives(), 1u);
}

TEST(MarginSelection, PicksMarginMaximizingAccuracy) {
  // One normal message at excess 2: accuracy 1.0 requires margin > 2.
  std::vector<sim::ScoredMessage> msgs = {
      {false, false, 2.0},
      {false, false, -1.0},
  };
  const double margin =
      sim::select_margin(msgs, sim::MarginObjective::kAccuracy);
  EXPECT_GT(margin, 2.0);
  EXPECT_DOUBLE_EQ(sim::score_at_margin(msgs, margin).accuracy(), 1.0);
}

TEST(MarginSelection, PicksMarginMaximizingFScore) {
  // Attacks at excess 5, normals at excess 1: best margin sits between.
  std::vector<sim::ScoredMessage> msgs;
  for (int i = 0; i < 10; ++i) msgs.push_back({true, false, 5.0});
  for (int i = 0; i < 10; ++i) msgs.push_back({false, false, 1.0});
  const double margin =
      sim::select_margin(msgs, sim::MarginObjective::kFScore);
  EXPECT_GT(margin, 1.0);
  EXPECT_LT(margin, 5.0);
  EXPECT_DOUBLE_EQ(sim::score_at_margin(msgs, margin).f_score(), 1.0);
}

TEST(MarginSelection, NeverNegative) {
  // Paper: "we do not consider negative margins".
  std::vector<sim::ScoredMessage> msgs = {{true, false, -3.0},
                                          {false, false, -5.0}};
  EXPECT_GE(sim::select_margin(msgs, sim::MarginObjective::kFScore), 0.0);
}

TEST(FrontEndTest, DownsampleAndRequantizeApplied) {
  Vehicle vehicle(sim::vehicle_a(), 12);
  const auto caps = vehicle.capture(1, analog::Environment::reference());
  sim::FrontEnd fe;
  fe.downsample_factor = 4;
  fe.resolution_bits = 12;
  const auto out = sim::apply_front_end(caps[0], fe, 16);
  EXPECT_EQ(out.codes.size(), (caps[0].codes.size() + 3) / 4);
  const double step = 16.0;  // 2^(16-12)
  for (double c : out.codes) {
    EXPECT_DOUBLE_EQ(std::fmod(c, step), 0.0);
  }
}

TEST(FrontEndTest, ExtractionConfigScalesWithDownsampling) {
  const auto cfg = sim::vehicle_a();
  const auto native = sim::front_end_extraction(cfg, sim::FrontEnd{});
  sim::FrontEnd fe;
  fe.downsample_factor = 8;
  const auto reduced = sim::front_end_extraction(cfg, fe);
  EXPECT_EQ(native.bit_width_samples, 80u);
  EXPECT_EQ(reduced.bit_width_samples, 10u);
  EXPECT_LT(reduced.dimension(), native.dimension());
}

}  // namespace
