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
                   std::size_t n, std::size_t stride);

  const ScoringPlan& plan_;
  // Workspace, reused across calls (sized on first use per batch shape).
  std::vector<std::uint32_t> to_score_;
  std::vector<double> soa_;       // dim x stride feature transpose
  std::vector<double> dscratch_;  // centered-feature scratch, dim * 16
  std::vector<double> dist_;      // clusters x stride distances
};

}  // namespace vprofile
