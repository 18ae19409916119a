#include "ulp.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace stats {
namespace {

/// Maps the double line onto a monotone signed-integer line: negative
/// values mirror around zero so ordering (and therefore distance) is
/// preserved across the sign boundary.
std::int64_t ordered_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint64_t sign = std::uint64_t{1} << 63;
  if ((bits & sign) == 0) return static_cast<std::int64_t>(bits);
  // Negative values count down from -1 (-0.0) as magnitude grows.
  return -static_cast<std::int64_t>(bits & ~sign) - 1;
}

}  // namespace

std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::int64_t oa = ordered_bits(a);
  const std::int64_t ob = ordered_bits(b);
  return oa >= ob ? static_cast<std::uint64_t>(oa) - static_cast<std::uint64_t>(ob)
                  : static_cast<std::uint64_t>(ob) - static_cast<std::uint64_t>(oa);
}

}  // namespace stats
