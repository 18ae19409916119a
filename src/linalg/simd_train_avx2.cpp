// AVX2 training kernels: the covariance accumulator's rank-1 updates and
// the Cholesky inverse's column solves.
//
// Both vectorize along an axis whose lanes never interact, so each lane
// runs the scalar sequence of simd_scalar.cpp.  The rank-1 updates put
// four columns j of one row of m2 in a vector: every element still gets
// m2 + a_t[i] * b_t[j], a multiply and then an add, for t in order.  The
// inverse puts four right-hand sides e_c in a vector, one column of the
// inverse per lane:
// the forward and back substitutions subtract l * y term by term in the
// scalar order and end with the correctly rounded vector divide.  This
// file builds with -mavx2 and -ffp-contract=off (no -mfma), so neither
// the intrinsics nor the compiler fuse a multiply into an add.
#include "linalg/simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace linalg::simd {

void rank1_updates_avx2(double* m2, const double* a, const double* b,
                        std::size_t dim, std::size_t k) {
  const std::size_t body = dim & ~std::size_t{3};
  for (std::size_t i = 0; i < dim; ++i) {
    double* row = m2 + i * dim;
    std::size_t j = 0;
    if (k == 4) {
      // The accumulator's batch size: broadcasts hoisted, one load and
      // one store of m2 per four updates.
      const __m256d a0 = _mm256_set1_pd(a[i]);
      const __m256d a1 = _mm256_set1_pd(a[dim + i]);
      const __m256d a2 = _mm256_set1_pd(a[2 * dim + i]);
      const __m256d a3 = _mm256_set1_pd(a[3 * dim + i]);
      const double* b0 = b;
      const double* b1 = b + dim;
      const double* b2 = b + 2 * dim;
      const double* b3 = b + 3 * dim;
      for (; j < body; j += 4) {
        __m256d acc = _mm256_loadu_pd(row + j);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + j)));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(b1 + j)));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(b2 + j)));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(b3 + j)));
        _mm256_storeu_pd(row + j, acc);
      }
    } else {
      for (; j < body; j += 4) {
        __m256d acc = _mm256_loadu_pd(row + j);
        for (std::size_t t = 0; t < k; ++t) {
          acc = _mm256_add_pd(
              acc, _mm256_mul_pd(_mm256_set1_pd(a[t * dim + i]),
                                 _mm256_loadu_pd(b + t * dim + j)));
        }
        _mm256_storeu_pd(row + j, acc);
      }
    }
    for (; j < dim; ++j) {
      double acc = row[j];
      for (std::size_t t = 0; t < k; ++t) {
        acc += a[t * dim + i] * b[t * dim + j];
      }
      row[j] = acc;
    }
  }
}

void cholesky_inverse_columns_avx2(const double* l, std::size_t n,
                                   double* scratch, double* inv,
                                   std::size_t begin, std::size_t end) {
  double* y = scratch;          // y[i * 4 + lane]
  double* x = scratch + 4 * n;  // x[i * 4 + lane]
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t c0 = begin; c0 < end; c0 += 4) {
    const __m256i cols = _mm256_setr_epi64x(
        static_cast<long long>(c0), static_cast<long long>(c0 + 1),
        static_cast<long long>(c0 + 2), static_cast<long long>(c0 + 3));
    // Forward substitution: L y = e_c, lane j solving for c = c0 + j.
    for (std::size_t i = 0; i < n; ++i) {
      const __m256i row_i = _mm256_set1_epi64x(static_cast<long long>(i));
      __m256d s = _mm256_and_pd(
          one, _mm256_castsi256_pd(_mm256_cmpeq_epi64(row_i, cols)));
      const double* li = l + i * n;
      for (std::size_t k = 0; k < i; ++k) {
        s = _mm256_sub_pd(s, _mm256_mul_pd(_mm256_set1_pd(li[k]),
                                           _mm256_loadu_pd(y + k * 4)));
      }
      _mm256_storeu_pd(y + i * 4, _mm256_div_pd(s, _mm256_set1_pd(li[i])));
    }
    // Back substitution: L^T x = y.
    for (std::size_t i = n; i-- > 0;) {
      __m256d s = _mm256_loadu_pd(y + i * 4);
      for (std::size_t k = i + 1; k < n; ++k) {
        s = _mm256_sub_pd(s, _mm256_mul_pd(_mm256_set1_pd(l[k * n + i]),
                                           _mm256_loadu_pd(x + k * 4)));
      }
      _mm256_storeu_pd(x + i * 4,
                       _mm256_div_pd(s, _mm256_set1_pd(l[i * n + i])));
    }
    const std::size_t lanes = end - c0 < 4 ? end - c0 : 4;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < lanes; ++j) inv[r * n + c0 + j] = x[r * 4 + j];
    }
  }
}

}  // namespace linalg::simd

#else  // non-x86: the dispatcher never selects kAvx2, but the symbols must
       // still link.

namespace linalg::simd {

void rank1_updates_avx2(double* m2, const double* a, const double* b,
                        std::size_t dim, std::size_t k) {
  rank1_updates_scalar(m2, a, b, dim, k);
}

void cholesky_inverse_columns_avx2(const double* l, std::size_t n,
                                   double* scratch, double* inv,
                                   std::size_t begin, std::size_t end) {
  cholesky_inverse_columns_scalar(l, n, scratch, inv, begin, end);
}

}  // namespace linalg::simd

#endif
