// Mahalanobis distance (paper Eq 2.2), the metric at the heart of vProfile.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace linalg {

/// sqrt((x - mu)^T Sigma^-1 (x - mu)) using an explicit inverse covariance
/// (the representation models store and the online updater maintains).
double mahalanobis_distance_inv(const Vector& x, const Vector& mu,
                                const Matrix& sigma_inverse);

}  // namespace linalg
