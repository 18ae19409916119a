#include "dsp/adc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dsp {

AdcModel::AdcModel(units::SampleRateHz sample_rate, int resolution_bits,
                   units::Volts v_min, units::Volts v_max)
    : sample_rate_(sample_rate),
      resolution_bits_(resolution_bits),
      v_min_(v_min),
      v_max_(v_max) {
  if (sample_rate <= units::SampleRateHz{0.0}) {
    throw std::invalid_argument("AdcModel: sample rate must be positive");
  }
  if (resolution_bits < 2 || resolution_bits > 24) {
    throw std::invalid_argument("AdcModel: resolution must be in [2, 24]");
  }
  if (v_min >= v_max) {
    throw std::invalid_argument("AdcModel: v_min must be < v_max");
  }
  max_code_ = (1u << resolution_bits) - 1u;
  volts_per_code_ = (v_max_ - v_min_).value() / static_cast<double>(max_code_);
}

double AdcModel::quantize(double volts) const {
  const double clamped = std::clamp(volts, v_min_.value(), v_max_.value());
  const double code = std::round((clamped - v_min_.value()) / volts_per_code_);
  return std::clamp(code, 0.0, static_cast<double>(max_code_));
}

Trace AdcModel::quantize_trace(const Trace& volts) const {
  Trace out(volts.size());
  for (std::size_t i = 0; i < volts.size(); ++i) out[i] = quantize(volts[i]);
  return out;
}

Trace requantize_codes(const Trace& codes, int from_bits, int to_bits) {
  if (to_bits < 1 || from_bits < 1 || to_bits > from_bits) {
    throw std::invalid_argument("requantize_codes: invalid bit widths");
  }
  if (to_bits == from_bits) return codes;
  const double step = static_cast<double>(1u << (from_bits - to_bits));
  Trace out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out[i] = std::floor(codes[i] / step) * step;
  }
  return out;
}

}  // namespace dsp
