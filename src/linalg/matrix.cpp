#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace linalg {
namespace {

void require_same_shape(const Matrix& a, const Matrix& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Matrix: dimensions must be positive");
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  }
  return t;
}

Matrix Matrix::operator+(const Matrix& other) const {
  require_same_shape(*this, other, "Matrix::operator+");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::operator*(double k) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= k;
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size()) {
    throw std::invalid_argument("Matrix::operator*(Vector): size mismatch");
  }
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += at(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

void Matrix::add_ridge(double lambda) {
  if (rows_ != cols_) {
    throw std::logic_error("Matrix::add_ridge: matrix must be square");
  }
  for (std::size_t i = 0; i < rows_; ++i) at(i, i) += lambda;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::fabs(at(r, c) - at(c, r)) > tol) return false;
    }
  }
  return true;
}

double Matrix::trace() const {
  if (rows_ != cols_) throw std::logic_error("Matrix::trace: square only");
  double t = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) t += at(i, i);
  return t;
}

}  // namespace linalg
