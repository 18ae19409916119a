// Numerically stable running moments (Welford's algorithm), scalar and
// element-wise vector variants.  The vector variant backs the per-sample-
// index standard deviation analysis of Fig 4.4.
#pragma once

#include <cstddef>
#include <vector>

namespace stats {

/// Running mean / variance of a scalar stream.
class Welford {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance (divides by n); 0 when fewer than 2 samples.
  double variance() const;
  /// Unbiased sample variance (divides by n-1); 0 when fewer than 2 samples.
  double sample_variance() const;
  double stddev() const;
  double sample_stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Element-wise running mean / variance over fixed-length vectors.
class VectorWelford {
 public:
  explicit VectorWelford(std::size_t dim);

  /// Adds one observation; throws std::invalid_argument on dimension
  /// mismatch.
  void add(const std::vector<double>& x);

  std::size_t count() const { return n_; }
  std::size_t dim() const { return dim_; }
  const std::vector<double>& mean() const { return mean_; }
  std::vector<double> variance() const;
  std::vector<double> stddev() const;

 private:
  std::size_t dim_;
  std::size_t n_ = 0;
  std::vector<double> mean_;
  std::vector<double> m2_;
};

}  // namespace stats
