// AVX2 Mahalanobis kernels: four edges per lane-quad, one edge per
// 64-bit lane.
//
// Bit-identity with the scalar oracle comes from the vectorization axis:
// lanes never interact, and each lane executes the same sub/mul/add
// sequence as simd_scalar.cpp (no FMA — this file builds with -mavx2 only
// and -ffp-contract=off, so neither the intrinsics nor the compiler fuse).
// The final sqrt(max(0, q)) is done in scalar std:: calls per lane because
// _mm256_max_pd(0, -0.0) keeps the -0.0 while std::max(0.0, -0.0) returns
// +0.0 — a sign difference bit-identity tests would (rightly) flag.
//
// The kernels process blocks of 16, 8, then 4 edges, largest first.  The
// accumulator chain of one lane is serial by the bit-identity contract
// (left-to-right adds, no reassociation), so a single chain runs at
// FP-add latency; the extra independent chains of the wider blocks
// overlap that latency, and the mu / inv_cov row broadcasts are shared
// across the whole block — wider blocks also stream the inverse
// covariance fewer times per edge.  The accumulators are deliberately
// named variables, not arrays: at -O2 GCC keeps named __m256d values in
// registers but spills indexed arrays to the stack, which costs more
// than the chaining saves.  Lane-local operation order is identical at
// every block width.
//
// mahalanobis_avx2_rows serves batches too small for an edge quad (one
// frame at a time, as lockstep serving scores) by turning the axis: one
// row of the inverse per lane, with the same 16/8/4 blocking over rows.
// Each lane's s_r chain is still the scalar sequence; the cross-row sum q
// stays in scalar, r ascending.
//
// This is the only translation unit allowed to use _mm256_* intrinsics
// outside the dispatch headers; the simd-boundary lint rule enforces that.
#include "linalg/simd_kernels.hpp"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace linalg::simd {
namespace {

/// Centered features for a block: feature i of the block's quad k lives
/// at dscratch[(i * nq + k) * 4 ..+4).
inline void center_block(const BatchView& batch, const double* mu,
                         double* dscratch, std::size_t e, std::size_t nq) {
  for (std::size_t i = 0; i < batch.dim; ++i) {
    const __m256d m = _mm256_set1_pd(mu[i]);
    const double* col = batch.soa + i * batch.stride + e;
    double* d = dscratch + i * nq * 4;
    for (std::size_t k = 0; k < nq; ++k) {
      _mm256_storeu_pd(d + k * 4,
                       _mm256_sub_pd(_mm256_loadu_pd(col + k * 4), m));
    }
  }
}

inline void mahalanobis_block4(const BatchView& batch, const double* mu,
                               const double* inv_cov, double* dscratch,
                               double* out, std::size_t e) {
  const std::size_t dim = batch.dim;
  center_block(batch, mu, dscratch, e, 4);
  __m256d q0 = _mm256_setzero_pd();
  __m256d q1 = _mm256_setzero_pd();
  __m256d q2 = _mm256_setzero_pd();
  __m256d q3 = _mm256_setzero_pd();
  for (std::size_t r = 0; r < dim; ++r) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    const double* row = inv_cov + r * dim;
    for (std::size_t c = 0; c < dim; ++c) {
      const __m256d w = _mm256_set1_pd(row[c]);
      const double* d = dscratch + c * 16;
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(w, _mm256_loadu_pd(d)));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(w, _mm256_loadu_pd(d + 4)));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(w, _mm256_loadu_pd(d + 8)));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(w, _mm256_loadu_pd(d + 12)));
    }
    const double* dr = dscratch + r * 16;
    q0 = _mm256_add_pd(q0, _mm256_mul_pd(_mm256_loadu_pd(dr), s0));
    q1 = _mm256_add_pd(q1, _mm256_mul_pd(_mm256_loadu_pd(dr + 4), s1));
    q2 = _mm256_add_pd(q2, _mm256_mul_pd(_mm256_loadu_pd(dr + 8), s2));
    q3 = _mm256_add_pd(q3, _mm256_mul_pd(_mm256_loadu_pd(dr + 12), s3));
  }
  alignas(32) double lanes[16];
  _mm256_store_pd(lanes, q0);
  _mm256_store_pd(lanes + 4, q1);
  _mm256_store_pd(lanes + 8, q2);
  _mm256_store_pd(lanes + 12, q3);
  for (std::size_t l = 0; l < 16; ++l) {
    out[e + l] = std::sqrt(std::max(0.0, lanes[l]));
  }
}

inline void mahalanobis_block2(const BatchView& batch, const double* mu,
                               const double* inv_cov, double* dscratch,
                               double* out, std::size_t e) {
  const std::size_t dim = batch.dim;
  center_block(batch, mu, dscratch, e, 2);
  __m256d q0 = _mm256_setzero_pd();
  __m256d q1 = _mm256_setzero_pd();
  for (std::size_t r = 0; r < dim; ++r) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    const double* row = inv_cov + r * dim;
    for (std::size_t c = 0; c < dim; ++c) {
      const __m256d w = _mm256_set1_pd(row[c]);
      const double* d = dscratch + c * 8;
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(w, _mm256_loadu_pd(d)));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(w, _mm256_loadu_pd(d + 4)));
    }
    const double* dr = dscratch + r * 8;
    q0 = _mm256_add_pd(q0, _mm256_mul_pd(_mm256_loadu_pd(dr), s0));
    q1 = _mm256_add_pd(q1, _mm256_mul_pd(_mm256_loadu_pd(dr + 4), s1));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, q0);
  _mm256_store_pd(lanes + 4, q1);
  for (std::size_t l = 0; l < 8; ++l) {
    out[e + l] = std::sqrt(std::max(0.0, lanes[l]));
  }
}

inline void mahalanobis_block1(const BatchView& batch, const double* mu,
                               const double* inv_cov, double* dscratch,
                               double* out, std::size_t e) {
  const std::size_t dim = batch.dim;
  center_block(batch, mu, dscratch, e, 1);
  __m256d q = _mm256_setzero_pd();
  for (std::size_t r = 0; r < dim; ++r) {
    __m256d s = _mm256_setzero_pd();
    const double* row = inv_cov + r * dim;
    for (std::size_t c = 0; c < dim; ++c) {
      const __m256d d = _mm256_loadu_pd(dscratch + c * 4);
      s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(row[c]), d));
    }
    const __m256d dr = _mm256_loadu_pd(dscratch + r * 4);
    q = _mm256_add_pd(q, _mm256_mul_pd(dr, s));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, q);
  for (std::size_t l = 0; l < 4; ++l) {
    out[e + l] = std::sqrt(std::max(0.0, lanes[l]));
  }
}

/// Row-quad blocks of the one-frame kernel: s[r0 .. r0 + 4 * quads) of
/// centered features d against the transposed inverse, four rows per lane
/// quad, c ascending in every lane.
inline void rows_block4(const double* inv_t, std::size_t rows,
                        const double* d, std::size_t dim, double* s,
                        std::size_t r0) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd();
  __m256d s3 = _mm256_setzero_pd();
  for (std::size_t c = 0; c < dim; ++c) {
    const __m256d x = _mm256_set1_pd(d[c]);
    const double* w = inv_t + c * rows + r0;
    s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_loadu_pd(w), x));
    s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_loadu_pd(w + 4), x));
    s2 = _mm256_add_pd(s2, _mm256_mul_pd(_mm256_loadu_pd(w + 8), x));
    s3 = _mm256_add_pd(s3, _mm256_mul_pd(_mm256_loadu_pd(w + 12), x));
  }
  _mm256_storeu_pd(s + r0, s0);
  _mm256_storeu_pd(s + r0 + 4, s1);
  _mm256_storeu_pd(s + r0 + 8, s2);
  _mm256_storeu_pd(s + r0 + 12, s3);
}

inline void rows_block2(const double* inv_t, std::size_t rows,
                        const double* d, std::size_t dim, double* s,
                        std::size_t r0) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  for (std::size_t c = 0; c < dim; ++c) {
    const __m256d x = _mm256_set1_pd(d[c]);
    const double* w = inv_t + c * rows + r0;
    s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_loadu_pd(w), x));
    s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_loadu_pd(w + 4), x));
  }
  _mm256_storeu_pd(s + r0, s0);
  _mm256_storeu_pd(s + r0 + 4, s1);
}

inline void rows_block1(const double* inv_t, std::size_t rows,
                        const double* d, std::size_t dim, double* s,
                        std::size_t r0) {
  __m256d s0 = _mm256_setzero_pd();
  for (std::size_t c = 0; c < dim; ++c) {
    const __m256d w = _mm256_loadu_pd(inv_t + c * rows + r0);
    s0 = _mm256_add_pd(s0, _mm256_mul_pd(w, _mm256_set1_pd(d[c])));
  }
  _mm256_storeu_pd(s + r0, s0);
}

}  // namespace

// vprofile-lint: hot
void mahalanobis_avx2(const BatchView& batch, const double* mu,
                      const double* inv_cov, double* dscratch, double* out,
                      std::size_t begin, std::size_t end) {
  std::size_t e = begin;
  for (; e + 16 <= end; e += 16) {
    mahalanobis_block4(batch, mu, inv_cov, dscratch, out, e);
  }
  for (; e + 8 <= end; e += 8) {
    mahalanobis_block2(batch, mu, inv_cov, dscratch, out, e);
  }
  for (; e + 4 <= end; e += 4) {
    mahalanobis_block1(batch, mu, inv_cov, dscratch, out, e);
  }
}

// vprofile-lint: hot
void mahalanobis_avx2_rows(const BatchView& batch, const double* mu,
                           const double* inv_cov_t, double* dscratch,
                           double* out, std::size_t begin, std::size_t end) {
  const std::size_t dim = batch.dim;
  const std::size_t rows = padded_rows(dim);
  double* d = dscratch;
  double* s = dscratch + dim;
  for (std::size_t e = begin; e < end; ++e) {
    for (std::size_t i = 0; i < dim; ++i) {
      d[i] = batch.soa[i * batch.stride + e] - mu[i];
    }
    std::size_t r = 0;
    for (; r + 16 <= rows; r += 16) rows_block4(inv_cov_t, rows, d, dim, s, r);
    for (; r + 8 <= rows; r += 8) rows_block2(inv_cov_t, rows, d, dim, s, r);
    for (; r < rows; r += 4) rows_block1(inv_cov_t, rows, d, dim, s, r);
    double q = 0.0;
    for (std::size_t k = 0; k < dim; ++k) q += d[k] * s[k];
    out[e] = std::sqrt(std::max(0.0, q));
  }
}

}  // namespace linalg::simd

#else  // non-x86: the dispatcher never selects kAvx2, but the symbols must
       // still link.

namespace linalg::simd {

void mahalanobis_avx2(const BatchView& batch, const double* mu,
                      const double* inv_cov, double* dscratch, double* out,
                      std::size_t begin, std::size_t end) {
  mahalanobis_scalar(batch, mu, inv_cov, dscratch, out, begin, end);
}

void mahalanobis_avx2_rows(const BatchView& batch, const double* mu,
                           const double* inv_cov_t, double* dscratch,
                           double* out, std::size_t begin, std::size_t end) {
  const std::size_t dim = batch.dim;
  const std::size_t rows = padded_rows(dim);
  double* d = dscratch;
  for (std::size_t e = begin; e < end; ++e) {
    for (std::size_t i = 0; i < dim; ++i) {
      d[i] = batch.soa[i * batch.stride + e] - mu[i];
    }
    double q = 0.0;
    for (std::size_t r = 0; r < dim; ++r) {
      double s = 0.0;
      for (std::size_t c = 0; c < dim; ++c) s += inv_cov_t[c * rows + r] * d[c];
      q += d[r] * s;
    }
    out[e] = std::sqrt(std::max(0.0, q));
  }
}

}  // namespace linalg::simd

#endif
