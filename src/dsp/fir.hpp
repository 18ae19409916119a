// Windowed-sinc FIR low-pass filter.  Used by the Murvay-Groza-style MSE
// baseline, which removes noise with a low-pass filter before
// fingerprinting (Section 1.2.1).
#pragma once

#include <vector>

#include "dsp/trace.hpp"

namespace dsp {

/// Linear-phase low-pass FIR (Hamming-windowed sinc).
class FirLowPass {
 public:
  /// `cutoff_hz` must be in (0, sample_rate_hz / 2); `num_taps` odd and
  /// >= 3.  Throws std::invalid_argument otherwise.
  FirLowPass(double cutoff_hz, double sample_rate_hz, std::size_t num_taps);

  /// Filters a trace.  Uses edge-value padding so the output has the same
  /// length and no startup ramp from zero.
  Trace apply(const Trace& input) const;

 private:
  std::vector<double> taps_;
};

}  // namespace dsp
