#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace linalg {

std::optional<Cholesky> Cholesky::factorize(const Matrix& a,
                                            double pivot_tol) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky::factorize: matrix must be square");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  // Scale the pivot tolerance to the matrix magnitude so that "singular"
  // means the same thing for volt-scale and ADC-code-scale data.
  const double scale =
      std::max(1.0, std::fabs(a.trace()) / static_cast<double>(n));
  const double tol = pivot_tol * scale;
  for (std::size_t j = 0; j < n; ++j) {
    double d = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l.at(j, k) * l.at(j, k);
    if (d <= tol) return std::nullopt;
    const double ljj = std::sqrt(d);
    l.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l.at(i, k) * l.at(j, k);
      l.at(i, j) = s / ljj;
    }
  }
  return Cholesky(std::move(l));
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = dim();
  if (b.size() != n) {
    throw std::invalid_argument("Cholesky::solve: size mismatch");
  }
  // Forward substitution: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_.at(i, k) * y[k];
    y[i] = s / l_.at(i, i);
  }
  // Back substitution: L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_.at(k, ii) * x[k];
    x[ii] = s / l_.at(ii, ii);
  }
  return x;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = dim();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    Vector col = solve(e);
    for (std::size_t r = 0; r < n; ++r) inv.at(r, c) = col[r];
    e[c] = 0.0;
  }
  return inv;
}

std::optional<RidgedCholesky> factorize_with_ridge(const Matrix& a,
                                                   double initial_ridge,
                                                   int max_attempts) {
  double lambda = 0.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix m = a;
    if (lambda > 0.0) m.add_ridge(lambda);
    if (auto f = Cholesky::factorize(m)) {
      return RidgedCholesky{std::move(*f), lambda};
    }
    // First retry replaces the exact sentinel 0.0, later ones scale it.
    lambda = std::fpclassify(lambda) == FP_ZERO ? initial_ridge
                                                : lambda * 10.0;
  }
  return std::nullopt;
}

}  // namespace linalg
