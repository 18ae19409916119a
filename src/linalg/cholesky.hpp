// Cholesky factorization of symmetric positive-definite matrices.
//
// Covariance matrices of edge sets are small (tens of dimensions) and
// symmetric; Cholesky gives the cheapest solve for Mahalanobis distances
// and a clean singularity signal — the paper hit singular covariances at
// <= 10-bit resolution (Section 4.3) and we surface the same condition.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace linalg {

/// Lower-triangular Cholesky factor L with A = L * L^T.
class Cholesky {
 public:
  /// Factorizes `a`; returns std::nullopt when the matrix is not positive
  /// definite (within `pivot_tol` of singular), mirroring the paper's
  /// "singular covariance matrix" failure mode.  Throws on a non-square
  /// input.
  static std::optional<Cholesky> factorize(const Matrix& a,
                                           double pivot_tol = 1e-12);

  std::size_t dim() const { return l_.rows(); }
  const Matrix& lower() const { return l_; }

  /// Full inverse A^-1 (needed by the online updater, which maintains the
  /// inverse incrementally afterwards).  Column c is the solution of
  /// A x = e_c by forward then back substitution, on the SIMD backend
  /// resolved at the call (simd::cholesky_inverse_columns_*); every
  /// backend gives the same bits.  Not bitwise symmetric.
  Matrix inverse() const;

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// Factorizes with escalating ridge regularization: tries lambda = 0, then
/// `initial_ridge` scaled by 10 each attempt, up to `max_attempts`.
/// Returns the factorization and the lambda that succeeded, or std::nullopt
/// if every attempt failed.  Mirrors what a deployment must do when sensor
/// quantization collapses the sample variance.
struct RidgedCholesky {
  Cholesky factor;
  double ridge = 0.0;
};
std::optional<RidgedCholesky> factorize_with_ridge(const Matrix& a,
                                                   double initial_ridge,
                                                   int max_attempts = 6);

}  // namespace linalg
