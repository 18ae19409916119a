// Digitizer front-end model: maps differential bus volts to offset-binary
// ADC codes at a configurable resolution.
//
// Models both capture devices of the paper: the AlazarTech card
// (20 MS/s, 16 bit, Vehicle A) and the custom side-channel board
// (10 MS/s, 12 bit, Vehicle B).  Codes are always expressed on the
// full-scale grid of the configured resolution, and `requantize_codes`
// reproduces the paper's software experiments that "drop the least
// significant bits".
//
// The sampling rate and analog range are unit-safe strong types
// (core/units.hpp); individual codes stay raw doubles because they live on
// the dimensionless ADC grid shared with dsp::Trace.
#pragma once

#include <cstdint>

#include "core/units.hpp"
#include "dsp/trace.hpp"

namespace dsp {

/// Digitizer configuration and conversion.
class AdcModel {
 public:
  /// `sample_rate` > 0, 2 <= `resolution_bits` <= 24, v_min < v_max.
  /// The defaults span the CAN differential range with headroom for
  /// overshoot, placing the recessive level near code 2^(bits-2) — with
  /// these values a 16-bit conversion puts the paper's Fig 2.5 threshold
  /// of 38000 roughly mid-edge.
  AdcModel(units::SampleRateHz sample_rate, int resolution_bits,
           units::Volts v_min = units::Volts{-1.0},
           units::Volts v_max = units::Volts{3.0});

  units::SampleRateHz sample_rate() const { return sample_rate_; }
  int resolution_bits() const { return resolution_bits_; }
  std::uint32_t max_code() const { return max_code_; }

  /// Quantizes one voltage to the nearest code, clamping at the rails.
  double quantize(double volts) const;
  /// Quantizes a whole voltage trace.
  Trace quantize_trace(const Trace& volts) const;

 private:
  units::SampleRateHz sample_rate_;
  int resolution_bits_;
  units::Volts v_min_;
  units::Volts v_max_;
  std::uint32_t max_code_;
  double volts_per_code_;
};

/// Drops LSBs from codes captured at `from_bits`, keeping the original code
/// scale (values snap to multiples of 2^(from-to)), exactly like the
/// paper's software resolution reduction in Section 4.3.  Throws
/// std::invalid_argument when to_bits > from_bits or either is < 1.
Trace requantize_codes(const Trace& codes, int from_bits, int to_bits);

}  // namespace dsp
