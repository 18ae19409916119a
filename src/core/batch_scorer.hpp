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
//                 inverse in place), and the resolved backend.  Model
//                 files are vetted by io::load_model (CRC-32 footer,
//                 parse and shape checks), not here.
//   BatchScorer   per-worker scratch (SoA transpose buffers, distance
//                 matrix) over one shared plan; scoring a batch does zero
//                 allocations after warm-up.
//
// Equivalence contract: on every backend (kScalar, kAvx2) the Detection
// stream is bit-identical to calling vprofile::detect() per edge set —
// same verdicts, same distances, same confidences.  Enforced by
// tests/test_simd_differential.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/detector.hpp"
#include "core/model.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/simd_kernels.hpp"

namespace vprofile {

/// Edge sets transposed into the SoA layout the distance kernels read
/// (linalg/simd_kernels.hpp), with the kernels' body / tail dispatch.
/// BatchScorer scores through it, and so does the trainer's threshold
/// pass.  Reused across calls; it allocates only when a batch outgrows
/// it.  The members are inline: out of line, they cost the batch-8
/// serving path (bench/e2e backlog_replay) ~8% of its frames/s.
class FeatureBatch {
 public:
  /// Transposes sets[indices[e]] (sets[e] when `indices` is null) for
  /// e < n; each set must hold `dim` samples.  The stride is n rounded up
  /// to a multiple of 4, and the pad columns are zero.
  void transpose_sets(const EdgeSet* const* sets,
                      const std::uint32_t* indices, std::size_t n,
                      std::size_t dim);

  const linalg::simd::BatchView& view() const { return view_; }

  /// out[e] = the Mahalanobis distance of edge e against (mu, inv_cov),
  /// e < count, bit-identical to linalg::mahalanobis_distance_inv.  With
  /// `backend` kAvx2 the 4-aligned body runs simd::mahalanobis_avx2 and
  /// the tail the one-frame row kernel when `inv_cov_t` (the padded
  /// transpose, see simd::mahalanobis_avx2_rows) is given; every other
  /// edge runs simd::mahalanobis_scalar.
  void mahalanobis_distances(linalg::simd::Backend backend, const double* mu,
                             const double* inv_cov, const double* inv_cov_t,
                             double* out);

 private:
  std::vector<double> soa_;       // dim x stride feature transpose
  std::vector<double> dscratch_;  // centered-feature scratch, dim * 16
  linalg::simd::BatchView view_;
};

// vprofile-lint: hot
inline void FeatureBatch::transpose_sets(const EdgeSet* const* sets,
                                         const std::uint32_t* indices,
                                         std::size_t n, std::size_t dim) {
  const std::size_t stride = (n + 3) & ~std::size_t{3};
  soa_.resize(dim * stride);
  for (std::size_t e = 0; e < n; ++e) {
    const auto& xs = sets[indices != nullptr ? indices[e] : e]->samples;
    for (std::size_t i = 0; i < dim; ++i) soa_[i * stride + e] = xs[i];
  }
  // The pad columns [n, stride) are never read (the AVX2 body stops at the
  // last full quad inside n), but zero them so the buffer stays
  // deterministic for debugging.
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t e = n; e < stride; ++e) soa_[i * stride + e] = 0.0;
  }
  dscratch_.resize(dim * 16);
  view_ = {soa_.data(), stride, n, dim};
}

// vprofile-lint: hot
inline void FeatureBatch::mahalanobis_distances(
    linalg::simd::Backend backend, const double* mu, const double* inv_cov,
    const double* inv_cov_t, double* out) {
  const bool avx2 = backend == linalg::simd::Backend::kAvx2;
  const std::size_t n = view_.count;
  const std::size_t body = avx2 ? (n & ~std::size_t{3}) : 0;
  if (body > 0) {
    linalg::simd::mahalanobis_avx2(view_, mu, inv_cov, dscratch_.data(), out,
                                   0, body);
  }
  if (body < n && avx2 && inv_cov_t != nullptr) {
    linalg::simd::mahalanobis_avx2_rows(view_, mu, inv_cov_t,
                                        dscratch_.data(), out, body, n);
  } else if (body < n) {
    linalg::simd::mahalanobis_scalar(view_, mu, inv_cov, dscratch_.data(),
                                     out, body, n);
  }
}

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

  std::size_t num_clusters() const { return clusters_.size(); }
  std::size_t dimension() const { return model_.dimension(); }

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
  };

  const Model& model_;
  linalg::simd::Backend backend_;
  std::vector<ClusterOps> clusters_;
};

/// Scores batches of edge sets against one plan.  Owns mutable scratch:
/// use one scorer per thread.
class BatchScorer {
 public:
  explicit BatchScorer(const ScoringPlan& plan) : plan_(plan) {}

  const ScoringPlan& plan() const { return plan_; }

  /// Classifies `count` edge sets; out[i] corresponds to sets[i].  The
  /// results are bit-identical to vprofile::detect() per set, in any batch
  /// size or order.
  void detect(const EdgeSet* const* sets, std::size_t count,
              const DetectionConfig& config, Detection* out);

 private:
  void score_batch(const EdgeSet* const* sets, const std::uint32_t* indices,
                   std::size_t n);

  const ScoringPlan& plan_;
  // Workspace, reused across calls (sized on first use per batch shape).
  std::vector<std::uint32_t> to_score_;
  FeatureBatch batch_;
  std::vector<double> dist_;  // clusters x stride distances
};

}  // namespace vprofile
