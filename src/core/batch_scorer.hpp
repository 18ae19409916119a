// Batched detection: structure-of-arrays scoring of many edge sets per
// call, behind the runtime SIMD dispatch boundary.
//
// The one-frame path (vprofile::detect) walks clusters with three heap
// allocations per distance; at 250 kb/s bus rates the allocator and the
// strided loads, not the arithmetic, dominate the scoring stage.  This
// layer splits the work the embedded way:
//
//   ScoringPlan   immutable, built once at model load: per-cluster mean
//                 copies, the transposed inverse the one-frame AVX2
//                 kernel reads (the batch kernels read the model's own
//                 inverse in place), the Cholesky factor of each covariance
//                 (factorized once and cached — also used to cross-check
//                 that the stored inverse actually inverts the stored
//                 covariance, which catches corrupted checkpoints at load
//                 time instead of as NaN verdicts later), the int16
//                 fixed-point operands, and the resolved backend.
//   BatchScorer   per-worker scratch (SoA transpose buffers, distance
//                 matrix) over one shared plan; scoring a batch does zero
//                 allocations after warm-up.
//
// Equivalence contract: for the float backends (kScalar, kAvx2) the
// Detection stream is bit-identical to calling vprofile::detect() per
// edge set — same verdicts, same distances, same confidences.  The fixed
// backend diverges within ScoringPlan::distance_error_bound().  Both
// properties are enforced by tests/test_simd_differential.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "core/model.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/fixed_point.hpp"
#include "linalg/simd_dispatch.hpp"

namespace vprofile {

/// Immutable per-model scoring operands; share one plan across workers.
/// The model must outlive the plan and must not be mutated while any
/// scorer uses it: the plan reads the model's inverse covariances in place
/// and caches derived operands, so a mutated model would score against a
/// mix of fresh and stale statistics — build a fresh plan after online
/// updates.
class ScoringPlan {
 public:
  /// Builds the plan, resolving `requested` against the CPU and the
  /// VPROFILE_FORCE_SCALAR escape hatch (see linalg/simd_dispatch.hpp).
  explicit ScoringPlan(
      const Model& model,
      linalg::simd::Backend requested = linalg::simd::Backend::kAuto);

  const Model& model() const { return model_; }
  /// The backend score() will actually run — never kAuto.
  linalg::simd::Backend backend() const { return backend_; }
  /// Shared power-of-two feature grid of the fixed-point operands.
  double feature_step() const { return feature_step_; }

  std::size_t num_clusters() const { return clusters_.size(); }
  std::size_t dimension() const { return model_.dimension(); }

  /// Cached Cholesky factor of cluster `c`'s covariance (factorized once
  /// at plan build), or nullopt for Euclidean clusters and covariances
  /// that stayed singular through ridge escalation.
  const std::optional<linalg::Cholesky>& factor(std::size_t c) const {
    return clusters_[c].factor;
  }
  /// Ridge the factorization needed (0 when it succeeded unregularized).
  double factor_ridge(std::size_t c) const { return clusters_[c].ridge; }
  /// False when the model's stored inverse covariance disagrees with its
  /// stored covariance (checked against the cached factor at load) — the
  /// signature of a corrupted or stale checkpoint.
  bool inverse_consistent(std::size_t c) const {
    return clusters_[c].inverse_consistent;
  }

  /// Worst-case fixed-point distance error for cluster `c` over queries
  /// within `radius` of its mean per component (original feature units).
  double distance_error_bound(std::size_t c, double radius) const {
    return clusters_[c].fixed.distance_error_bound(radius);
  }

 private:
  friend class BatchScorer;

  struct ClusterOps {
    std::vector<double> mean;  // contiguous copy
    /// The model's own row-major inverse, read in place by the batch
    /// kernels; null for Euclidean.
    const double* inv_cov = nullptr;
    /// AVX2 plans only: the inverse transposed and zero-padded to
    /// simd::padded_rows(dim) rows, for the one-frame kernel.
    std::vector<double> inv_cov_t;
    std::optional<linalg::Cholesky> factor;
    double ridge = 0.0;
    bool inverse_consistent = true;
    linalg::fixed::ClusterQuant fixed;
  };

  const Model& model_;
  linalg::simd::Backend backend_;
  double feature_step_ = 1.0;
  std::vector<ClusterOps> clusters_;
};

/// Scores batches of edge sets against one plan.  Owns mutable scratch:
/// use one scorer per thread.
class BatchScorer {
 public:
  explicit BatchScorer(const ScoringPlan& plan) : plan_(plan) {}

  const ScoringPlan& plan() const { return plan_; }

  /// Classifies `count` edge sets; out[i] corresponds to sets[i].  For
  /// float backends the results are bit-identical to vprofile::detect()
  /// per set, in any batch size or order.
  void detect(const EdgeSet* const* sets, std::size_t count,
              const DetectionConfig& config, Detection* out);

  /// Convenience overload.
  std::vector<Detection> detect(const std::vector<EdgeSet>& sets,
                                const DetectionConfig& config);

 private:
  void score_batch(const EdgeSet* const* sets, const std::uint32_t* indices,
                   std::size_t n, std::size_t stride);

  const ScoringPlan& plan_;
  // Workspace, reused across calls (sized on first use per batch shape).
  std::vector<std::uint32_t> to_score_;
  std::vector<double> soa_;       // dim x stride feature transpose
  std::vector<double> dscratch_;  // centered-feature scratch, dim * 16
  std::vector<double> dist_;      // clusters x stride distances
  std::vector<std::int16_t> soa_fx_;  // int16 transpose (fixed backend)
};

}  // namespace vprofile
