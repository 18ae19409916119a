#include "linalg/mahalanobis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace linalg {

double mahalanobis_distance_inv(const Vector& x, const Vector& mu,
                                const Matrix& sigma_inverse) {
  if (x.size() != mu.size() || sigma_inverse.rows() != x.size() ||
      sigma_inverse.cols() != x.size()) {
    throw std::invalid_argument("mahalanobis_distance_inv: size mismatch");
  }
  Vector d = subtract(x, mu);
  Vector sd = sigma_inverse * d;
  const double q = dot(d, sd);
  return std::sqrt(std::max(0.0, q));
}

}  // namespace linalg
