// Binary (anomaly/normal) confusion matrix with the metrics the paper
// reports: accuracy, precision, recall and F-score.
#pragma once

#include <cstdint>
#include <string>

namespace stats {

/// Binary confusion matrix for anomaly detection.
///
/// Follows the paper's convention: "positive" means anomaly.  The paper's
/// tables are laid out actual-(anomaly|normal) x predicted-(anomaly|normal);
/// to_table() renders that layout.
class BinaryConfusion {
 public:
  void add(bool actual_anomaly, bool predicted_anomaly);

  std::uint64_t true_positives() const { return tp_; }
  std::uint64_t true_negatives() const { return tn_; }
  std::uint64_t false_positives() const { return fp_; }
  std::uint64_t false_negatives() const { return fn_; }
  std::uint64_t total() const { return tp_ + tn_ + fp_ + fn_; }

  /// (TP + TN) / total; 0 if empty.
  double accuracy() const;
  /// TP / (TP + FP); 1 if no positive predictions were made and no
  /// anomalies existed, 0 if predictions were made but none were right.
  double precision() const;
  /// TP / (TP + FN); 1 if there were no anomalies to find.
  double recall() const;
  /// Harmonic mean of precision and recall; 0 when both are 0.
  double f_score() const;

  /// Renders the 2x2 table in the paper's layout.
  std::string to_table(const std::string& title) const;

 private:
  std::uint64_t tp_ = 0;
  std::uint64_t tn_ = 0;
  std::uint64_t fp_ = 0;
  std::uint64_t fn_ = 0;
};

}  // namespace stats
