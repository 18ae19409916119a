#include "stats/confusion.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace stats {

void BinaryConfusion::add(bool actual_anomaly, bool predicted_anomaly) {
  if (actual_anomaly) {
    predicted_anomaly ? ++tp_ : ++fn_;
  } else {
    predicted_anomaly ? ++fp_ : ++tn_;
  }
}

double BinaryConfusion::accuracy() const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(tp_ + tn_) / static_cast<double>(n);
}

double BinaryConfusion::precision() const {
  const std::uint64_t denom = tp_ + fp_;
  if (denom == 0) return (tp_ + fn_ == 0) ? 1.0 : 0.0;
  return static_cast<double>(tp_) / static_cast<double>(denom);
}

double BinaryConfusion::recall() const {
  const std::uint64_t denom = tp_ + fn_;
  if (denom == 0) return 1.0;
  return static_cast<double>(tp_) / static_cast<double>(denom);
}

double BinaryConfusion::f_score() const {
  const double p = precision();
  const double r = recall();
  // Exact-zero guard against division by zero, not a tolerance test.
  if (std::fpclassify(p + r) == FP_ZERO) return 0.0;
  return 2.0 * p * r / (p + r);
}

std::string BinaryConfusion::to_table(const std::string& title) const {
  std::ostringstream os;
  os << title << '\n';
  os << "                    Predicted\n";
  os << "                    Anomaly      Normal\n";
  os << "  Actual Anomaly  " << std::setw(9) << tp_ << "  " << std::setw(10)
     << fn_ << '\n';
  os << "  Actual Normal   " << std::setw(9) << fp_ << "  " << std::setw(10)
     << tn_ << '\n';
  os << std::fixed << std::setprecision(5);
  os << "  accuracy=" << accuracy() << "  precision=" << precision()
     << "  recall=" << recall() << "  F-score=" << f_score() << '\n';
  return os.str();
}

}  // namespace stats
