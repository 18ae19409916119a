// Concept-drift sentinel over per-cluster Mahalanobis distance streams.
//
// A healthy bus produces distances that hover around the training
// distribution; environmental drift (temperature, battery sag) and slow
// adversarial poisoning both show up as a sustained upward shift long
// before frames start crossing the detection threshold.  The sentinel
// runs a Page–Hinkley test per cluster: it tracks the running mean of the
// distances and accumulates how far recent samples sit above that mean
// (minus a tolerance delta); when the accumulated excursion exceeds
// lambda, the cluster is drifting.
//
// The sentinel is purely statistical — it raises alarms.  The supervisor
// owns the health state machine (healthy -> drifting -> retraining ->
// degraded) that acts on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace runtime {

/// Supervisor health, escalated on drift alarms and recovery outcomes.
enum class HealthState {
  kHealthy,     // distances stationary, model trusted
  kDrifting,    // sentinel alarm: collecting a retrain candidate
  kRetraining,  // candidate full: validating against held-back frames
  kDegraded,    // recovery failed (rollback / restart budget exhausted)
};

const char* to_string(HealthState state);

struct DriftConfig {
  /// Page–Hinkley tolerance: upward shifts smaller than delta (per
  /// sample, in distance units) are treated as noise.
  double delta = 0.05;
  /// Alarm threshold on the accumulated excursion.
  double lambda = 25.0;
  /// Samples a cluster must see before it can alarm (the running mean is
  /// meaningless earlier).
  std::uint64_t min_samples = 64;
};

class DriftSentinel {
 public:
  DriftSentinel(std::size_t num_clusters, DriftConfig config);

  /// Feeds one classified frame's distance.  Returns true when this
  /// sample pushes the cluster's Page–Hinkley statistic over lambda (the
  /// alarm latches until reset()).
  bool observe(std::size_t cluster, double distance);

  /// Clears one cluster's test state (after a promoted retrain: the new
  /// model defines a new stationary regime).
  void reset(std::size_t cluster);
  void reset_all();

  std::uint64_t alarms_total() const { return alarms_; }

 private:
  struct ClusterState {
    std::uint64_t n = 0;
    double mean = 0.0;
    double cumulative = 0.0;  // m_t: sum of (x_i - mean_i - delta)
    double cumulative_min = 0.0;
    bool alarmed = false;
  };

  DriftConfig config_;
  std::vector<ClusterState> state_;
  std::uint64_t alarms_ = 0;
};

}  // namespace runtime
