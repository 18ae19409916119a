#include "linalg/vector_ops.hpp"

#include <cmath>
#include <stdexcept>

namespace linalg {
namespace {

void require_same_size(const Vector& a, const Vector& b, const char* what) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
}

}  // namespace

Vector subtract(const Vector& a, const Vector& b) {
  require_same_size(a, b, "linalg::subtract");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& a, double k) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * k;
  return out;
}

double dot(const Vector& a, const Vector& b) {
  require_same_size(a, b, "linalg::dot");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double euclidean_distance(const Vector& a, const Vector& b) {
  require_same_size(a, b, "linalg::euclidean_distance");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

Vector mean_of(const std::vector<Vector>& xs) {
  if (xs.empty()) throw std::invalid_argument("linalg::mean_of: empty input");
  Vector m(xs.front().size(), 0.0);
  for (const Vector& x : xs) {
    require_same_size(m, x, "linalg::mean_of");
    for (std::size_t i = 0; i < m.size(); ++i) m[i] += x[i];
  }
  const double inv = 1.0 / static_cast<double>(xs.size());
  for (double& v : m) v *= inv;
  return m;
}

}  // namespace linalg
