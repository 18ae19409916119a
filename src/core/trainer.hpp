// vProfile training (paper Algorithm 2).
//
// Two clustering paths, exactly as the paper describes:
//  * "fortunate": a database maps every valid SA to its owning ECU, so
//    clustering is a lookup; and
//  * "unfortunate": no database — edge sets are grouped by SA and SA groups
//    whose means are close are merged into one cluster.
//
// Training then stores each cluster's mean, covariance (Mahalanobis only),
// inverse covariance, and the maximum training distance that seeds the
// detection threshold.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/edge_set.hpp"
#include "core/model.hpp"

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

namespace vprofile {

/// Maps an SA to the name of the ECU that owns it ("the database").
using SaDatabase = std::map<std::uint8_t, std::string>;

/// Training options.
struct TrainingConfig {
  DistanceMetric metric = DistanceMetric::kMahalanobis;
  ExtractionConfig extraction;
  /// Ridge added to covariance diagonals when the plain factorization is
  /// singular.  0 disables the fallback, reproducing the paper's hard
  /// failure at low ADC resolutions ("singular covariance matrices").
  double ridge = 0.0;
  /// Distance below which two SA-group means belong to the same ECU when
  /// clustering without a database.  <= 0 selects the automatic
  /// largest-gap heuristic.
  double merge_threshold = 0.0;
  /// Minimum edge sets a cluster needs for a usable covariance.
  std::size_t min_cluster_size = 8;
  /// Optional observability sinks (per-cluster fit latency / spans); null
  /// = zero overhead, and the trained model is bit-identical either way.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Outcome of training: a model, or a diagnosis of why training failed.
struct TrainOutcome {
  std::optional<Model> model;
  std::string error;         // empty on success
  double ridge_used = 0.0;   // ridge that made the covariance invertible

  bool ok() const { return model.has_value(); }
};

/// Trains with a known SA database (ClusterByLut).  Edge sets whose SA is
/// missing from the database are rejected with an error, since training
/// data is trusted by assumption.
TrainOutcome train_with_database(const std::vector<EdgeSet>& edge_sets,
                                 const SaDatabase& database,
                                 const TrainingConfig& config);

/// Trains without a database (GroupBySA + ClusterByDist): SA groups whose
/// means are within the merge threshold collapse into one cluster.
TrainOutcome train_by_distance(const std::vector<EdgeSet>& edge_sets,
                               const TrainingConfig& config);

/// The SA-group merge step exposed for tests and diagnostics: returns, for
/// each distinct SA (ascending), the cluster index it was assigned.
std::vector<std::size_t> cluster_sa_groups_by_distance(
    const std::vector<std::uint8_t>& sas,
    const std::vector<linalg::Vector>& sa_means, double merge_threshold);

}  // namespace vprofile
