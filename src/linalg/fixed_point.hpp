// 12-bit feature quantizer, mirroring the paper's ADC domain.
//
// Embedded monitors (Sagong et al.'s quantized front end, HIVIDS-style
// static builds) see features on a coarse integer grid, not as doubles.
// This header maps features onto a power-of-two grid sized so a 12-bit
// ADC range maps 1:1 (step 1 for Vehicle B's 12-bit digitizer, step 16
// for Vehicle A's 16-bit card).  The frontier's fixed-point defense arm
// (sim/adversary.cpp) scores features rounded through this grid to ask
// whether the embedded profile opens or closes blind spots.
#pragma once

#include <cstdint>

namespace linalg::fixed {

/// Largest representable quantized feature magnitude.
inline constexpr std::int64_t kFeatMax = 8191;

/// Smallest power-of-two step that maps [-2*max_abs, 2*max_abs] onto the
/// 12-bit magnitude grid (|x/step| <= 4096): the "12-bit ADC mirror".
/// Returns at least 1 — a native 12-bit digitizer quantizes losslessly.
double choose_feature_step(double max_abs);

/// Quantizes one feature: round(x / step), saturated to +/-kFeatMax.
std::int16_t quantize_feature(double x, double step);

}  // namespace linalg::fixed
