// Batched distance kernels over structure-of-arrays feature batches.
//
// Mahalanobis (the paper's metric, Algorithm 3, and the only one the
// serving paths and the benchmark score) has scalar and AVX2 kernels.
// Euclidean (Tables 4.1/4.2) has the scalar kernel only: the paper's
// Euclidean results run through vprofile::detect, and no shipped run
// serves a Euclidean model through BatchScorer, so an AVX2 Euclidean
// kernel would be code that only its own differential test reaches.
//
// Layout contract: a batch of `count` edge sets of dimension `dim` is
// stored transposed, soa[i * stride + e] = feature i of edge e, with
// stride >= count (the scorer pads stride to a multiple of the SIMD width
// so vector loads never run off the row).  The kernels score a half-open
// edge range [begin, end) so the dispatcher can hand the 4-aligned body to
// AVX2 and the remainder to the scalar kernel.
//
// Bit-identity contract: for every edge, the scalar kernels perform the
// exact floating-point operation sequence of the one-at-a-time reference
// (linalg::euclidean_distance / mahalanobis_distance_inv): left-to-right
// accumulation, no reassociation, no FMA contraction (these translation
// units build with -ffp-contract=off).  The AVX2 Mahalanobis kernels run
// the same sequence with one edge (or one inverse row) per lane, so every
// backend produces bit-identical doubles.
// tests/test_simd_differential.cpp enforces this.
#pragma once

#include <cstddef>

namespace linalg::simd {

/// Read-only view of one SoA feature batch.
struct BatchView {
  const double* soa = nullptr;  // soa[i * stride + e]
  std::size_t stride = 0;       // >= count, multiple of the SIMD width
  std::size_t count = 0;        // edges in the batch
  std::size_t dim = 0;          // features per edge
};

/// out[e] = sqrt(sum_i (x_e[i] - mu[i])^2) for e in [begin, end).
void euclidean_scalar(const BatchView& batch, const double* mu, double* out,
                      std::size_t begin, std::size_t end);

/// Mahalanobis distance against (mu, inv_cov) for e in [begin, end):
/// d = x_e - mu; sd_r = sum_c inv_cov[r][c] * d_c; q = sum_r d_r * sd_r;
/// out[e] = sqrt(max(0, q)).  `dscratch` must hold >= dim doubles.
void mahalanobis_scalar(const BatchView& batch, const double* mu,
                        const double* inv_cov, double* dscratch, double* out,
                        std::size_t begin, std::size_t end);

/// AVX2 variant; [begin, end) must be 4-aligned in length and begin.
/// `dscratch` must hold >= dim * 16 doubles (the kernel processes up to
/// four quads per pass where the range allows it).  Only call when
/// simd::resolve(...) chose Backend::kAvx2 — the implementation is
/// compiled with -mavx2 and must not run on CPUs without it.
void mahalanobis_avx2(const BatchView& batch, const double* mu,
                      const double* inv_cov, double* dscratch, double* out,
                      std::size_t begin, std::size_t end);

/// Rows of the inverse the one-frame kernel pads to: dim rounded up to 4.
inline std::size_t padded_rows(std::size_t dim) {
  return (dim + 3) & ~std::size_t{3};
}

/// One-frame AVX2 Mahalanobis for e in [begin, end), any count — the
/// kernel for batches under one quad and for the tail after the body.
/// It vectorizes across rows of the inverse instead of across edges: one
/// lane per row r runs the scalar sequence s_r += inv_cov[r][c] * d_c
/// (c ascending), then q = sum_r d_r * s_r and sqrt(max(0, q)) run in
/// scalar, r ascending, so results stay bit-identical to
/// mahalanobis_scalar.  `inv_cov_t` is the inverse TRANSPOSED and padded
/// with zero rows, inv_cov_t[c * padded_rows(dim) + r] = inv_cov[r][c];
/// the stored inverse is not bitwise symmetric, so the row-major matrix
/// cannot stand in for it.  `dscratch` must hold >= dim + padded_rows(dim)
/// doubles.
void mahalanobis_avx2_rows(const BatchView& batch, const double* mu,
                           const double* inv_cov_t, double* dscratch,
                           double* out, std::size_t begin, std::size_t end);

}  // namespace linalg::simd
