// Dense row-major matrix sized for edge-set covariances (tens of rows).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace linalg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Raw row-major storage (for serialization).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix transpose() const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator*(double k) const;
  Vector operator*(const Vector& v) const;

  /// Adds `lambda` to every diagonal element (ridge regularization).
  void add_ridge(double lambda);

  /// True when the matrix equals its transpose within `tol`.
  bool is_symmetric(double tol = 1e-9) const;
  double trace() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace linalg
