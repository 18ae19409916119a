// Online model update (paper Algorithm 4 / Section 5.3).
//
// Folds new, trusted edge sets into an existing model so vProfile can track
// slow environmental drift (temperature, battery voltage) without a full
// retrain.  Mean and covariance follow Eq 5.1; the inverse covariance is
// maintained incrementally (Sherman-Morrison), and the per-cluster maximum
// distance grows when a new edge set lands beyond it.
//
// The paper cautions that updates lose impact as the edge-set count N_n
// grows, so each cluster carries a retrain bound M; updates past the bound
// are refused and the cluster is flagged for retraining.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/detector.hpp"
#include "core/edge_set.hpp"
#include "core/model.hpp"

namespace vprofile {

/// Outcome of one update attempt.
enum class UpdateStatus {
  kUpdated,
  kUnknownSa,        // edge set's SA is not in the model
  kRetrainRequired,  // cluster reached the retrain bound M
  kDimensionMismatch,
  kNotMahalanobis,   // only Mahalanobis models carry covariance state
};

const char* to_string(UpdateStatus status);

/// Applies Algorithm 4 to a model in place.
class OnlineUpdater {
 public:
  /// `model` must outlive the updater and use the Mahalanobis metric.
  /// `retrain_bound` is the paper's M: once a cluster's edge-set count
  /// reaches it, further updates are refused.  Throws
  /// std::invalid_argument for a Euclidean model or a bound of 0.
  OnlineUpdater(Model* model, std::size_t retrain_bound);

  /// Folds one edge set into its cluster.
  UpdateStatus update(const EdgeSet& edge_set);

  /// Convenience: updates with a batch; returns the count actually folded.
  std::size_t update_all(const std::vector<EdgeSet>& edge_sets);

  /// Clusters whose edge-set count reached the retrain bound.
  std::vector<std::size_t> clusters_needing_retrain() const;

  std::size_t retrain_bound() const { return retrain_bound_; }

 private:
  Model* model_;
  std::size_t retrain_bound_;
};

/// Why the gate folded — or refused — a candidate edge set.
enum class GateDecision {
  kAccepted,          // folded into the model
  kRejectedVerdict,   // detector did not say kOk (anomaly or degraded)
  kRejectedMargin,    // kOk but too close to the cluster threshold
  kRefusedByUpdater,  // gate passed, OnlineUpdater refused (bound, SA, dim)
};

struct GatedUpdateConfig {
  /// The paper's retrain bound M, forwarded to OnlineUpdater.
  std::size_t retrain_bound = 100000;
  /// A frame is only trusted when its distance sits below this fraction of
  /// its cluster's max_distance — "high-margin benign".  Frames between
  /// here and the detection threshold still pass the detector but are
  /// exactly where a slow-poisoning adversary (Sagong et al.) operates, so
  /// the gate refuses them.
  double max_distance_fraction = 0.6;
};

/// Tallies for every consider() call; mirrors GateDecision.
struct GatedUpdateStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_verdict = 0;
  std::uint64_t rejected_margin = 0;
  std::uint64_t refused_by_updater = 0;
};

/// Algorithm 4 with the verdict gate in front: only frames the detector
/// itself vouches for — a confident kOk verdict *and* a distance well
/// inside the trained threshold — are folded into the model.  This is
/// what keeps the online-update loop from being a poisoning vector: an
/// adversary ramping its signature toward a victim's never gets its
/// frames trusted, because the frames that pass detection are exactly the
/// ones that look like the existing profile.
class GatedUpdater {
 public:
  /// Same model requirements as OnlineUpdater (Mahalanobis, non-null);
  /// throws std::invalid_argument when they do not hold.
  GatedUpdater(Model* model, GatedUpdateConfig config);

  /// Folds `edge_set` iff `detection` (the detector's verdict for this
  /// same edge set) passes the gate.
  GateDecision consider(const EdgeSet& edge_set, const Detection& detection);

  const GatedUpdateStats& stats() const { return stats_; }
  const GatedUpdateConfig& config() const { return config_; }
  /// The wrapped ungated updater (for retrain bookkeeping).
  OnlineUpdater& updater() { return updater_; }

 private:
  Model* model_;
  GatedUpdateConfig config_;
  OnlineUpdater updater_;
  GatedUpdateStats stats_;
};

}  // namespace vprofile
