// Covariance estimation: batch accumulation for training (Algorithm 2) and
// the incremental update of Eq 5.1 for the online model updater
// (Algorithm 4), including a Sherman-Morrison rank-1 update that keeps the
// inverse covariance current without refactorizing.
#pragma once

#include <cstddef>
#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace linalg {

/// Accumulates mean and covariance over a batch of equal-length vectors.
///
/// Uses the same population normalization (divide by n) as the paper's
/// Eq 5.1 so that batch and incremental estimates agree exactly.
///
/// add() updates the mean at once and queues the observation's rank-1
/// update of the sum of outer products; every kBatch observations the
/// queue runs in one sweep over the matrix, on the SIMD backend resolved
/// at construction (linalg/simd_dispatch.hpp).  Each element still adds
/// its terms one observation at a time, in order, so every backend and
/// batch size gives the same bits.  add() allocates nothing.
class CovarianceAccumulator {
 public:
  explicit CovarianceAccumulator(std::size_t dim);

  void add(const Vector& x);

  std::size_t count() const { return n_; }
  std::size_t dim() const { return dim_; }
  const Vector& mean() const { return mean_; }
  /// Population covariance (divides by n); throws std::logic_error with
  /// fewer than 2 observations.
  Matrix covariance() const;

 private:
  /// Observations per sweep of the queued rank-1 updates.
  static constexpr std::size_t kBatch = 4;

  std::size_t dim_;
  std::size_t n_ = 0;
  bool avx2_;
  Vector mean_;
  Matrix m2_;  // sum of outer products of deviations (Welford style)
  // Queued rank-1 updates, observation t at [t * dim, (t + 1) * dim):
  // x - the mean before it (delta) and x - the mean after it (delta2).
  std::size_t pending_ = 0;
  Vector delta_;
  Vector delta2_;

  /// Applies the queued updates to `m2` (m2_ or a copy of it).
  void apply_pending(Matrix& m2) const;
};

/// Maintains mean, covariance, and inverse covariance under one-at-a-time
/// updates (paper Eq 5.1 / Algorithm 4).
///
/// The covariance update is the textbook online form
///   Sigma_n = ((x - mu_{n-1})(x - mu_n)^T + (n-1) Sigma_{n-1}) / n
/// which is what Eq 5.1 expresses element-wise.  The inverse is maintained
/// with two Sherman-Morrison rank-1 corrections so detection never pays a
/// refactorization.
class IncrementalCovariance {
 public:
  /// Seeds the state from an already-trained cluster.  `inverse` must be
  /// the inverse of `covariance`; `count` the number of edge sets that
  /// produced them.  Throws on inconsistent shapes or count < 2.
  IncrementalCovariance(Vector mean, Matrix covariance, Matrix inverse,
                        std::size_t count);

  /// Folds one new observation into the mean, covariance and inverse.
  void update(const Vector& x);

  std::size_t count() const { return n_; }
  const Vector& mean() const { return mean_; }
  const Matrix& covariance() const { return cov_; }
  const Matrix& inverse() const { return inv_; }

 private:
  std::size_t n_;
  Vector mean_;
  Matrix cov_;
  Matrix inv_;
};

/// Sherman-Morrison: (A + u v^T)^-1 given A^-1.  Returns std::nullopt when
/// the update is singular (1 + v^T A^-1 u ~= 0).
std::optional<Matrix> sherman_morrison(const Matrix& a_inv, const Vector& u,
                                       const Vector& v);

}  // namespace linalg
