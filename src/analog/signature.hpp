// Per-ECU analog transmit signature.
//
// Manufacturing variation gives every CAN transceiver slightly different
// output levels, edge dynamics and ringing (Section 2.2.1, "Immutable ECU
// Property").  We model the differential bus voltage a transmitting ECU
// produces as a switched second-order system: when the driver turns on
// (dominant) the output follows a drive response, when it releases the bus
// (recessive) the termination network pulls it back with a different
// response.  Underdamped dynamics produce the overshoot and ringing seen
// in the paper's Fig 2.5.
//
// Voltage levels and the transceiver's timing jitter are unit-safe strong
// types (core/units.hpp); the environmental coefficients stay raw doubles
// because they are mixed-dimension slopes (volts per degree, relative
// fraction per degree) the type system has no single unit for.
#pragma once

#include <cstdint>

#include "analog/environment.hpp"
#include "core/units.hpp"

namespace analog {

/// Second-order response parameters of one switching direction.
struct EdgeDynamics {
  double natural_freq_hz = 2.0e6;  // omega_n / (2 pi)
  double damping = 0.7;            // zeta, must stay in (0, 1)
};

/// Full electrical signature of one ECU's transmitter.
struct EcuSignature {
  /// Differential dominant level (CAN_H - CAN_L) at reference conditions.
  units::Volts dominant{2.0};
  /// Differential recessive level; ideally 0 V, small per-node offset.
  units::Volts recessive{0.0};
  EdgeDynamics drive;    // recessive -> dominant transitions
  EdgeDynamics release;  // dominant -> recessive transitions
  /// Gaussian measurement/bus noise at the sampling point (RMS).
  units::Volts noise_sigma{0.008};
  /// Per-transition timing jitter of the transceiver (RMS).
  units::Seconds edge_jitter{3.0e-9};

  // Environmental coefficients (deviations from reference conditions).
  /// Dominant-level shift per degree Celsius of *ECU* temperature.
  double dominant_temp_coeff_v_per_c = -0.0008;
  /// Relative natural-frequency change per degree Celsius.
  double freq_temp_coeff_per_c = -0.001;
  /// Dominant-level shift per volt of battery deviation.
  double dominant_vbat_coeff = 0.012;
  /// Fraction of the ambient temperature excursion this ECU experiences
  /// (1 = mounted on the engine block like the ECM, ~0.2 = cabin module).
  double temperature_coupling = 0.5;

  /// Effective signature under the given environment: levels and dynamics
  /// shifted by the coefficients above.  Noise and jitter are unchanged.
  EcuSignature under(const Environment& env) const;
};

}  // namespace analog
