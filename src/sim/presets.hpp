// Vehicle presets standing in for the paper's two test trucks.
//
// Vehicle A mirrors the 2016 Peterbilt 579: five ECUs with visually
// distinct voltage profiles (Fig 4.2), captured at 20 MS/s and 16 bits.
// ECUs 1 and 4 are deliberately the most-similar pair — the paper found
// them closest under both metrics and used them for the foreign-device
// imitation test.  ECU 0 is the engine-mounted ECM with strong temperature
// coupling (Fig 4.6 shows its distance shifting drastically with
// temperature; ECU 2 also reacts strongly, the rest only subtly).
//
// Vehicle B mirrors the confidential partner vehicle: more ECUs (ten) with
// much less distinct profiles, captured at 10 MS/s and 12 bits.  Its
// dominant levels are close together relative to the edge-sample variance,
// which is what broke Euclidean-distance detection in the paper
// (accuracy 0.886) while Mahalanobis stayed at 1.0.
#pragma once

#include "sim/vehicle.hpp"

namespace sim {

/// Five-ECU Peterbilt-like vehicle, 250 kb/s J1939, 20 MS/s / 16 bit.
VehicleConfig vehicle_a();

/// Ten-ECU partner-like vehicle, 250 kb/s J1939, 10 MS/s / 12 bit.
/// `seed` controls the signature draw (profiles stay close by design).
VehicleConfig vehicle_b(std::uint64_t seed = 0xB0B);

/// Default extraction bit threshold for a vehicle: the ADC code midway
/// between the recessive level and two thirds of the nominal dominant
/// level (the paper's 38000 for 16-bit Vehicle A data sits at the same
/// fraction of full scale).
double default_bit_threshold(const VehicleConfig& config);

/// Extraction config matched to the vehicle's digitizer and bitrate.
vprofile::ExtractionConfig default_extraction(const VehicleConfig& config);

/// The one training recipe every tool shares: capture `count` clean
/// messages from `vehicle` under `env`, extract their edge sets with
/// default_extraction(), and train with the vehicle's SA database.
/// `config.extraction` is overwritten; the other fields (metric,
/// observability sinks) are the caller's.  The capture advances the
/// vehicle's random stream, so a given (vehicle seed, count) always
/// yields the same model.
vprofile::TrainOutcome train_on_clean_traffic(Vehicle& vehicle,
                                              std::size_t count,
                                              const analog::Environment& env,
                                              vprofile::TrainingConfig config);

}  // namespace sim
