// Normal-approximation confidence intervals, used for the 99% CI error bars
// of Figs 4.6-4.8.
#pragma once

#include <cstddef>
#include <vector>

namespace stats {

/// A symmetric confidence interval around a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
};

/// Two-sided standard-normal quantile z such that P(|Z| <= z) = confidence.
/// Implemented with the Acklam inverse-normal approximation (|error| < 1e-9),
/// so common confidences (0.90, 0.95, 0.99) need no lookup table.
double normal_quantile_two_sided(double confidence);

/// CI of the mean of `samples` at the given two-sided confidence level,
/// using the normal approximation with the sample standard deviation.
/// Throws std::invalid_argument on an empty sample set or a confidence
/// outside (0, 1).
ConfidenceInterval mean_confidence_interval(const std::vector<double>& samples,
                                            double confidence);

}  // namespace stats
