// Two-tap bus capture: the physical setup of Moreno & Fischmeister's
// propagation-delay locator (Section 1.2.2), which attaches two
// differential probes to opposite ends of the bus and uses the arrival
// time difference to locate the transmitting node.
//
// Signals propagate along the twisted pair at roughly two thirds of the
// speed of light (~5 ns/m).  A node at position x on a bus of length L
// reaches tap A (at 0) after x/v and tap B (at L) after (L-x)/v; the
// difference (2x-L)/v identifies x.  Both taps see the *same* transmitted
// waveform (including the transmitter's edge jitter) with independent
// measurement noise.
#pragma once

#include <utility>

#include "analog/environment.hpp"
#include "analog/signature.hpp"
#include "analog/synth.hpp"
#include "canbus/crc15.hpp"
#include "dsp/trace.hpp"
#include "stats/rng.hpp"

namespace analog {

/// Physical bus geometry for two-tap capture.
struct TwoTapBus {
  double length_m = 10.0;
  /// Signal propagation speed on the pair (vf ~ 0.66 c).
  double propagation_mps = 2.0e8;
  /// Amplitude loss per metre of cable between node and tap.
  double attenuation_per_m = 0.004;
};

/// Synthesizes the two tap captures of one frame sent by a node at
/// `position_m` (metres from tap A).  The transmitted waveform — bit
/// timing, edge jitter, sampling phase — is shared; only arrival delay,
/// attenuation, and measurement noise differ per tap.  Throws
/// std::invalid_argument when position_m is outside [0, length_m] or the
/// options are invalid.
std::pair<dsp::Trace, dsp::Trace> synthesize_two_tap_voltage(
    const canbus::BitVector& wire_bits, const EcuSignature& sig,
    const Environment& env, const SynthOptions& opts, const TwoTapBus& bus,
    double position_m, stats::Rng& rng);

}  // namespace analog
