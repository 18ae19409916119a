#include "linalg/covariance.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/simd_kernels.hpp"

namespace linalg {

CovarianceAccumulator::CovarianceAccumulator(std::size_t dim)
    : dim_(dim),
      avx2_(simd::resolve(simd::Backend::kAuto) == simd::Backend::kAvx2),
      mean_(dim, 0.0),
      m2_(dim, dim),
      delta_(kBatch * dim),
      delta2_(kBatch * dim) {
  if (dim == 0) {
    throw std::invalid_argument("CovarianceAccumulator: dim must be > 0");
  }
}

void CovarianceAccumulator::add(const Vector& x) {
  if (x.size() != dim_) {
    throw std::invalid_argument("CovarianceAccumulator::add: size mismatch");
  }
  ++n_;
  // Welford-style: delta against the old mean, delta2 against the new.
  double* delta = delta_.data() + pending_ * dim_;
  double* delta2 = delta2_.data() + pending_ * dim_;
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < dim_; ++i) {
    delta[i] = x[i] - mean_[i];
    mean_[i] += delta[i] * inv_n;
  }
  for (std::size_t i = 0; i < dim_; ++i) delta2[i] = x[i] - mean_[i];
  if (++pending_ == kBatch) {
    apply_pending(m2_);
    pending_ = 0;
  }
}

void CovarianceAccumulator::apply_pending(Matrix& m2) const {
  if (pending_ == 0) return;
  if (avx2_) {
    simd::rank1_updates_avx2(m2.data().data(), delta_.data(), delta2_.data(),
                             dim_, pending_);
  } else {
    simd::rank1_updates_scalar(m2.data().data(), delta_.data(),
                               delta2_.data(), dim_, pending_);
  }
}

Matrix CovarianceAccumulator::covariance() const {
  if (n_ < 2) {
    throw std::logic_error(
        "CovarianceAccumulator::covariance: need >= 2 observations");
  }
  Matrix m2 = m2_;
  apply_pending(m2);
  return m2 * (1.0 / static_cast<double>(n_));
}

IncrementalCovariance::IncrementalCovariance(Vector mean, Matrix covariance,
                                             Matrix inverse, std::size_t count)
    : n_(count),
      mean_(std::move(mean)),
      cov_(std::move(covariance)),
      inv_(std::move(inverse)) {
  const std::size_t d = mean_.size();
  if (d == 0 || cov_.rows() != d || cov_.cols() != d || inv_.rows() != d ||
      inv_.cols() != d) {
    throw std::invalid_argument("IncrementalCovariance: shape mismatch");
  }
  if (count < 2) {
    throw std::invalid_argument("IncrementalCovariance: count must be >= 2");
  }
}

void IncrementalCovariance::update(const Vector& x) {
  const std::size_t d = mean_.size();
  if (x.size() != d) {
    throw std::invalid_argument("IncrementalCovariance::update: size");
  }
  const double n_prev = static_cast<double>(n_);
  ++n_;
  const double n_new = static_cast<double>(n_);

  // Mean update: mu_n = mu_{n-1} + (x - mu_{n-1}) / n.
  Vector delta_old = subtract(x, mean_);  // x - mu_{n-1}
  for (std::size_t i = 0; i < d; ++i) mean_[i] += delta_old[i] / n_new;
  Vector delta_new = subtract(x, mean_);  // x - mu_n

  // Covariance (Eq 5.1): Sigma_n = (delta_old delta_new^T
  //                                 + (n-1) Sigma_{n-1}) / n.
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      cov_.at(i, j) =
          (delta_old[i] * delta_new[j] + n_prev * cov_.at(i, j)) / n_new;
    }
  }

  // Inverse update.  Sigma_n = (n-1)/n * Sigma_{n-1} + (1/n) delta_old
  // delta_new^T, so first rescale the inverse of the scaled old matrix,
  // then apply one Sherman-Morrison correction for the rank-1 term.
  const double shrink = n_prev / n_new;   // Sigma' = shrink * Sigma_{n-1}
  Matrix inv_scaled = inv_ * (1.0 / shrink);
  Vector u = scale(delta_old, 1.0 / n_new);
  if (auto updated = sherman_morrison(inv_scaled, u, delta_new)) {
    inv_ = std::move(*updated);
  } else {
    // Degenerate rank-1 update (numerically singular); fall back to a full
    // refactorization so the state stays consistent.
    auto chol = Cholesky::factorize(cov_);
    if (!chol) {
      throw std::runtime_error(
          "IncrementalCovariance::update: covariance became singular");
    }
    inv_ = chol->inverse();
  }
}

std::optional<Matrix> sherman_morrison(const Matrix& a_inv, const Vector& u,
                                       const Vector& v) {
  const std::size_t d = a_inv.rows();
  if (a_inv.cols() != d || u.size() != d || v.size() != d) {
    throw std::invalid_argument("sherman_morrison: shape mismatch");
  }
  Vector ainv_u = a_inv * u;
  // v^T A^-1 (row vector) = (A^-T v)^T; compute directly.
  Vector vt_ainv(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < d; ++i) s += v[i] * a_inv.at(i, j);
    vt_ainv[j] = s;
  }
  const double denom = 1.0 + dot(v, ainv_u);
  if (std::fabs(denom) < 1e-12) return std::nullopt;
  Matrix out = a_inv;
  const double inv_denom = 1.0 / denom;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      out.at(i, j) -= ainv_u[i] * vt_ainv[j] * inv_denom;
    }
  }
  return out;
}

}  // namespace linalg
