// Free-function vector arithmetic over std::vector<double>.
//
// Edge sets are short (tens of samples), so a plain contiguous vector with
// free functions keeps the call sites readable without committing to an
// expression-template library.
#pragma once

#include <cstddef>
#include <vector>

namespace linalg {

using Vector = std::vector<double>;

/// Element-wise difference a - b; throws std::invalid_argument on size
/// mismatch.
Vector subtract(const Vector& a, const Vector& b);
/// Scalar multiple.
Vector scale(const Vector& a, double k);
/// Inner product; throws on size mismatch.
double dot(const Vector& a, const Vector& b);
/// Euclidean distance between two points (Eq 2.1); throws on size mismatch.
double euclidean_distance(const Vector& a, const Vector& b);
/// Element-wise mean of a non-empty set of equal-length vectors; throws on
/// empty input or ragged sizes.
Vector mean_of(const std::vector<Vector>& xs);

}  // namespace linalg
