#include "stats/welford.hpp"

#include <cmath>
#include <stdexcept>

namespace stats {

void Welford::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double Welford::sample_variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

double Welford::sample_stddev() const { return std::sqrt(sample_variance()); }

VectorWelford::VectorWelford(std::size_t dim)
    : dim_(dim), mean_(dim, 0.0), m2_(dim, 0.0) {
  if (dim == 0) throw std::invalid_argument("VectorWelford: dim must be > 0");
}

void VectorWelford::add(const std::vector<double>& x) {
  if (x.size() != dim_) {
    throw std::invalid_argument("VectorWelford::add: dimension mismatch");
  }
  ++n_;
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double delta = x[i] - mean_[i];
    mean_[i] += delta * inv_n;
    m2_[i] += delta * (x[i] - mean_[i]);
  }
}

std::vector<double> VectorWelford::variance() const {
  std::vector<double> v(dim_, 0.0);
  if (n_ < 2) return v;
  for (std::size_t i = 0; i < dim_; ++i) {
    v[i] = m2_[i] / static_cast<double>(n_);
  }
  return v;
}

std::vector<double> VectorWelford::stddev() const {
  std::vector<double> v = variance();
  for (double& x : v) x = std::sqrt(x);
  return v;
}

}  // namespace stats
