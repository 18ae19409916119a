#include "linalg/fixed_point.hpp"

#include <algorithm>
#include <cmath>

namespace linalg::fixed {

double choose_feature_step(double max_abs) {
  double step = 1.0;
  // |2 * max_abs / step| must fit the 12-bit magnitude grid (<= 4096).
  while (2.0 * max_abs / step > 4096.0) step *= 2.0;
  return step;
}

std::int16_t quantize_feature(double x, double step) {
  // Round-to-nearest on the power-of-two grid, saturated to +/-kFeatMax.
  const double r = std::clamp(std::nearbyint(x / step),
                              -static_cast<double>(kFeatMax),
                              static_cast<double>(kFeatMax));
  return static_cast<std::int16_t>(r);
}

}  // namespace linalg::fixed
