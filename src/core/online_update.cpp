#include "core/online_update.hpp"

#include <stdexcept>

#include "linalg/covariance.hpp"
#include "linalg/mahalanobis.hpp"

namespace vprofile {

const char* to_string(UpdateStatus status) {
  switch (status) {
    case UpdateStatus::kUpdated: return "updated";
    case UpdateStatus::kUnknownSa: return "unknown SA";
    case UpdateStatus::kRetrainRequired: return "retrain required";
    case UpdateStatus::kDimensionMismatch: return "dimension mismatch";
    case UpdateStatus::kNotMahalanobis: return "model is not Mahalanobis";
  }
  return "unknown";
}

OnlineUpdater::OnlineUpdater(Model* model, std::size_t retrain_bound)
    : model_(model), retrain_bound_(retrain_bound) {
  if (model_ == nullptr) {
    throw std::invalid_argument("OnlineUpdater: null model");
  }
  if (model_->metric() != DistanceMetric::kMahalanobis) {
    throw std::invalid_argument(
        "OnlineUpdater: model must use the Mahalanobis metric");
  }
  if (retrain_bound_ == 0) {
    throw std::invalid_argument("OnlineUpdater: retrain bound must be > 0");
  }
}

UpdateStatus OnlineUpdater::update(const EdgeSet& edge_set) {
  if (model_->metric() != DistanceMetric::kMahalanobis) {
    return UpdateStatus::kNotMahalanobis;
  }
  const auto cluster = model_->cluster_of(edge_set.sa);
  if (!cluster) return UpdateStatus::kUnknownSa;
  ClusterModel& cl = model_->clusters()[*cluster];
  if (edge_set.samples.size() != cl.mean.size()) {
    return UpdateStatus::kDimensionMismatch;
  }
  if (cl.edge_set_count >= retrain_bound_) {
    return UpdateStatus::kRetrainRequired;
  }

  // Eq 5.1 via the incremental covariance state, then write back.
  linalg::IncrementalCovariance state(cl.mean, cl.covariance,
                                      cl.inv_covariance, cl.edge_set_count);
  state.update(edge_set.samples);
  cl.mean = state.mean();
  cl.covariance = state.covariance();
  cl.inv_covariance = state.inverse();
  cl.edge_set_count = state.count();

  const double dist = linalg::mahalanobis_distance_inv(
      edge_set.samples, cl.mean, cl.inv_covariance);
  if (dist > cl.max_distance) cl.max_distance = dist;
  return UpdateStatus::kUpdated;
}

std::size_t OnlineUpdater::update_all(const std::vector<EdgeSet>& edge_sets) {
  std::size_t updated = 0;
  for (const EdgeSet& e : edge_sets) {
    if (update(e) == UpdateStatus::kUpdated) ++updated;
  }
  return updated;
}

std::vector<std::size_t> OnlineUpdater::clusters_needing_retrain() const {
  std::vector<std::size_t> out;
  const auto& clusters = model_->clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].edge_set_count >= retrain_bound_) out.push_back(c);
  }
  return out;
}

GatedUpdater::GatedUpdater(Model* model, GatedUpdateConfig config)
    : model_(model), config_(config), updater_(model, config.retrain_bound) {
  if (config_.max_distance_fraction <= 0.0 ||
      config_.max_distance_fraction > 1.0) {
    throw std::invalid_argument(
        "GatedUpdater: max_distance_fraction must be in (0, 1]");
  }
}

GateDecision GatedUpdater::consider(const EdgeSet& edge_set,
                                    const Detection& detection) {
  if (detection.verdict != Verdict::kOk || !detection.expected_cluster) {
    ++stats_.rejected_verdict;
    return GateDecision::kRejectedVerdict;
  }
  const ClusterModel& cl = model_->clusters()[*detection.expected_cluster];
  if (detection.min_distance >
      config_.max_distance_fraction * cl.max_distance) {
    ++stats_.rejected_margin;
    return GateDecision::kRejectedMargin;
  }
  if (updater_.update(edge_set) != UpdateStatus::kUpdated) {
    ++stats_.refused_by_updater;
    return GateDecision::kRefusedByUpdater;
  }
  ++stats_.accepted;
  return GateDecision::kAccepted;
}

}  // namespace vprofile
