#include "core/batch_scorer.hpp"

#include <limits>
#include <utility>

#include "linalg/simd_kernels.hpp"

namespace vprofile {

ScoringPlan::ScoringPlan(const Model& model, linalg::simd::Backend requested)
    : model_(model), backend_(linalg::simd::resolve(requested)) {
  const std::size_t dim = model.dimension();
  const bool mahalanobis = model.metric() == DistanceMetric::kMahalanobis;

  clusters_.reserve(model.clusters().size());
  for (const ClusterModel& cm : model.clusters()) {
    ClusterOps ops;
    ops.mean = cm.mean;
    if (mahalanobis) {
      ops.inv_cov = cm.inv_covariance.data().data();
      if (backend_ == linalg::simd::Backend::kAvx2) {
        const std::size_t rows = linalg::simd::padded_rows(dim);
        ops.inv_cov_t.assign(dim * rows, 0.0);
        for (std::size_t r = 0; r < dim; ++r) {
          for (std::size_t c = 0; c < dim; ++c) {
            ops.inv_cov_t[c * rows + r] = ops.inv_cov[r * dim + c];
          }
        }
      }
    }
    clusters_.push_back(std::move(ops));
  }
}

// vprofile-lint: hot
void BatchScorer::detect(const EdgeSet* const* sets, std::size_t count,
                         const DetectionConfig& config, Detection* out) {
  // Stage 1: the per-edge quality gate + SA lookup, unchanged from the
  // one-frame path.  Edges it finalizes never reach the kernels.
  to_score_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    if (detect_prescore(plan_.model(), *sets[i], config, &out[i])) {
      to_score_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const std::size_t n = to_score_.size();
  if (n == 0) return;

  // Stage 2: SoA transpose + per-cluster kernel over all survivors.
  score_batch(sets, to_score_.data(), n);
  const std::size_t stride = batch_.view().stride;

  // Stage 3: argmin (ascending scan, strict <, exactly like
  // Model::nearest_cluster) and the shared verdict logic.
  const std::size_t num_clusters = plan_.clusters_.size();
  for (std::size_t e = 0; e < n; ++e) {
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < num_clusters; ++c) {
      const double d = dist_[c * stride + e];
      if (d < best_dist) {
        best_dist = d;
        best = c;
      }
    }
    detect_postscore(plan_.model(), config, best, best_dist,
                     &out[to_score_[e]]);
  }
}

// vprofile-lint: hot
void BatchScorer::score_batch(const EdgeSet* const* sets,
                              const std::uint32_t* indices, std::size_t n) {
  batch_.transpose_sets(sets, indices, n, plan_.dimension());
  const std::size_t stride = batch_.view().stride;
  const bool mahalanobis =
      plan_.model().metric() == DistanceMetric::kMahalanobis;
  dist_.resize(plan_.clusters_.size() * stride);
  for (std::size_t c = 0; c < plan_.clusters_.size(); ++c) {
    const ScoringPlan::ClusterOps& ops = plan_.clusters_[c];
    double* row = dist_.data() + c * stride;
    if (mahalanobis) {
      batch_.mahalanobis_distances(plan_.backend_, ops.mean.data(),
                                   ops.inv_cov, ops.inv_cov_t.data(), row);
    } else {
      // Euclidean is scalar on every backend (see simd_kernels.hpp).
      linalg::simd::euclidean_scalar(batch_.view(), ops.mean.data(), row, 0,
                                     n);
    }
  }
}

}  // namespace vprofile
