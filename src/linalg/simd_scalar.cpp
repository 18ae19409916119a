// Scalar reference kernels — the bit-identity oracle every other backend
// is held against.  The loops mirror linalg::euclidean_distance and
// linalg::mahalanobis_distance_inv operation-for-operation, and the
// training kernels define the trained model's bytes; this file is built
// with -ffp-contract=off so the compiler cannot fuse a*b+c into an FMA
// and silently change the rounding the oracle is defined by.
#include "linalg/simd_kernels.hpp"

#include <algorithm>
#include <cmath>

namespace linalg::simd {

// vprofile-lint: hot
void euclidean_scalar(const BatchView& batch, const double* mu, double* out,
                      std::size_t begin, std::size_t end) {
  for (std::size_t e = begin; e < end; ++e) {
    double s = 0.0;
    for (std::size_t i = 0; i < batch.dim; ++i) {
      const double d = batch.soa[i * batch.stride + e] - mu[i];
      s += d * d;
    }
    out[e] = std::sqrt(s);
  }
}

// vprofile-lint: hot
void mahalanobis_scalar(const BatchView& batch, const double* mu,
                        const double* inv_cov, double* dscratch, double* out,
                        std::size_t begin, std::size_t end) {
  const std::size_t dim = batch.dim;
  for (std::size_t e = begin; e < end; ++e) {
    for (std::size_t i = 0; i < dim; ++i) {
      dscratch[i] = batch.soa[i * batch.stride + e] - mu[i];
    }
    // Same association as mahalanobis_distance_inv: each row's inner
    // product completes (c ascending) before it joins the quadratic form
    // (r ascending).
    double q = 0.0;
    for (std::size_t r = 0; r < dim; ++r) {
      double s = 0.0;
      const double* row = inv_cov + r * dim;
      for (std::size_t c = 0; c < dim; ++c) s += row[c] * dscratch[c];
      q += dscratch[r] * s;
    }
    out[e] = std::sqrt(std::max(0.0, q));
  }
}

void rank1_updates_scalar(double* m2, const double* a, const double* b,
                          std::size_t dim, std::size_t k) {
  for (std::size_t t = 0; t < k; ++t) {
    const double* at = a + t * dim;
    const double* bt = b + t * dim;
    for (std::size_t i = 0; i < dim; ++i) {
      double* row = m2 + i * dim;
      for (std::size_t j = 0; j < dim; ++j) row[j] += at[i] * bt[j];
    }
  }
}

void cholesky_inverse_columns_scalar(const double* l, std::size_t n,
                                     double* scratch, double* inv,
                                     std::size_t begin, std::size_t end) {
  double* y = scratch;
  double* x = scratch + n;
  for (std::size_t c = begin; c < end; ++c) {
    // Forward substitution: L y = e_c.
    for (std::size_t i = 0; i < n; ++i) {
      double s = i == c ? 1.0 : 0.0;
      for (std::size_t k = 0; k < i; ++k) s -= l[i * n + k] * y[k];
      y[i] = s / l[i * n + i];
    }
    // Back substitution: L^T x = y.
    for (std::size_t i = n; i-- > 0;) {
      double s = y[i];
      for (std::size_t k = i + 1; k < n; ++k) s -= l[k * n + i] * x[k];
      x[i] = s / l[i * n + i];
    }
    for (std::size_t r = 0; r < n; ++r) inv[r * n + c] = x[r];
  }
}

}  // namespace linalg::simd
