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
//
// Training (Algorithm 2) runs on the same kernels and two of its own,
// declared after the scoring kernels: the covariance accumulator's rank-1
// update and the Cholesky inverse's column solves.  Their contract is the
// scoring kernels' one: every backend performs, per matrix element or per
// inverse column, exactly the scalar sequence, so a model trained on
// either backend has the same bytes.  The trainer's threshold pass scores
// its members with mahalanobis_avx2 / mahalanobis_scalar, whose reference
// is mahalanobis_distance_inv.
//
// The same boundary holds the wire codec's kernels, declared at the end:
// the CRC-32 fold io::crc32 runs on PCLMULQDQ CPUs and the AVX2 u16
// pack / unpack of fleet::wire.  Their contract is byte identity: every
// input gives the scalar loop's bytes, CRC and doubles.
#pragma once

#include <cstddef>
#include <cstdint>

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

// ---------------------------------------------------------------------
// Training kernels
// ---------------------------------------------------------------------

/// k rank-1 updates of the covariance accumulator's sum of outer
/// products in one sweep: for t = 0 .. k-1 in order,
/// m2[i * dim + j] += a[t * dim + i] * b[t * dim + j] for every i, j <
/// dim, one multiply then one add per term (never FMA).  Each element
/// keeps its own sequence of adds, in t order, so neither batching the k
/// updates nor vectorizing across j changes a bit against k separate
/// element-by-element updates.
void rank1_updates_scalar(double* m2, const double* a, const double* b,
                          std::size_t dim, std::size_t k);

/// AVX2 variant, four j per vector and the dim % 4 remainder in scalar.
/// Only call when resolve(Backend::kAuto) chose Backend::kAvx2.
void rank1_updates_avx2(double* m2, const double* a, const double* b,
                        std::size_t dim, std::size_t k);

/// Columns [begin, end) of A^-1 for A = L L^T, with `l` the row-major
/// n x n lower Cholesky factor and `inv` the row-major n x n output.
/// Column c solves A x = e_c: forward substitution
/// y_i = (e_c[i] - sum_k<i l[i][k] * y_k) / l[i][i], then back
/// substitution x_i = (y_i - sum_k>i l[k][i] * x_k) / l[i][i], each sum
/// subtracted term by term with k ascending — exactly what one column of
/// the one-right-hand-side solve does, with no step skipped for the zero
/// entries of e_c.  `scratch` must hold >= 2 * n doubles.
void cholesky_inverse_columns_scalar(const double* l, std::size_t n,
                                     double* scratch, double* inv,
                                     std::size_t begin, std::size_t end);

/// AVX2 variant: four columns per pass, one per lane, each lane running
/// the scalar sequence with sub(mul) and the correctly rounded vector
/// divide.  Any [begin, end); a last quad past n runs zero right-hand
/// sides in its spare lanes and writes none of them.  `scratch` must hold
/// >= 8 * n doubles.  Only call when resolve(Backend::kAuto) chose
/// Backend::kAvx2.
void cholesky_inverse_columns_avx2(const double* l, std::size_t n,
                                   double* scratch, double* inv,
                                   std::size_t begin, std::size_t end);

// ---------------------------------------------------------------------
// Wire codec kernels
// ---------------------------------------------------------------------

/// Folds `len` bytes into the CRC-32 register `crc` (the zlib polynomial,
/// reflected 0xEDB88320; pass the register as it stands, before the final
/// xor) and returns the register, equal to what the slicing-by-8 loop
/// leaves.  Four 16-byte lanes fold 64 bytes per step with carry-less
/// multiplies, then one lane folds 16 at a time and a Barrett reduction
/// ends it (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction", Intel, 2009).  `len` must be >= 64 and
/// a multiple of 16.  Only call when resolve_pclmul() is true — the file
/// is compiled with -mpclmul.
std::uint32_t crc32_fold_pclmul(const unsigned char* data, std::size_t len,
                                std::uint32_t crc);

/// Samples per step of the AVX2 u16 pack and unpack; `count` must be a
/// multiple of it.
inline constexpr std::size_t kU16CodecBlock = 16;

/// Writes `count` samples as little-endian u16 codes under fleet::wire's
/// lossless rule (s + 2^52 is 2^52 plus a code <= 0xFFFF, and subtracting
/// 2^52 gives back the bits of s) and returns true when every sample
/// passes.  On false, `out` holds a partial write.  Only call when
/// resolve(Backend::kAuto) chose Backend::kAvx2.
bool pack_u16_codes_avx2(const double* samples, std::size_t count,
                         unsigned char* out);

/// out[i] = double(little-endian u16 at in + 2 * i) for `count` samples,
/// exact.  Same dispatch rule as pack_u16_codes_avx2.
void unpack_u16_codes_avx2(const unsigned char* in, std::size_t count,
                           double* out);

}  // namespace linalg::simd
