// AVX2 u16 pack and unpack for fleet::wire's sample payload.
//
// Pack runs wire.cpp's lossless rule on four samples per vector, with the
// same two checks per lane: bits(s + 2^52) - bits(2^52) must fit in 16
// bits, and (s + 2^52) - 2^52 must have the bits of s.  The vector add and
// subtract round exactly as the scalar ones do, so a lane fails exactly
// when the scalar loop would stop on that sample.  The failures of a
// 16-sample step are ORed and tested once; only a step whose lanes all
// pass is written, so any frame the scalar loop refuses is refused here.
//
// Unpack zero-extends u16 to int32 and converts to double, which is exact
// for every code: the doubles equal static_cast<double>(code).
#include "linalg/simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace linalg::simd {
namespace {

/// The codes of four samples (each in its 64-bit lane), with every lane
/// that breaks the lossless rule ORed into `fail`.
inline __m256i u16_codes(const double* s, __m256i* fail) {
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  const __m256d x = _mm256_loadu_pd(s);
  const __m256d shifted = _mm256_add_pd(x, two52);
  const __m256i code = _mm256_sub_epi64(_mm256_castpd_si256(shifted),
                                        _mm256_castpd_si256(two52));
  const __m256i over = _mm256_andnot_si256(_mm256_set1_epi64x(0xFFFF), code);
  const __m256i changed =
      _mm256_xor_si256(_mm256_castpd_si256(_mm256_sub_pd(shifted, two52)),
                       _mm256_castpd_si256(x));
  *fail = _mm256_or_si256(*fail, _mm256_or_si256(over, changed));
  return code;
}

}  // namespace

bool pack_u16_codes_avx2(const double* samples, std::size_t count,
                         unsigned char* out) {
  // After two unsigned-saturating 32 -> 16 packs (exact, every code is
  // <= 0xFFFF), dword d of the result holds two codes: d0..d3 the first
  // pair of c0..c3, d4..d7 the second.  This order puts them back.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (std::size_t i = 0; i < count; i += kU16CodecBlock) {
    // A trace is read once, usually from L3 (a sender encodes it long
    // after it was captured), and the hardware prefetcher alone leaves
    // this loop waiting on it: fetching 2 KiB ahead took a 6000-sample
    // pack from L3 from 8.0 to 3.9-4.8 µs on a 4-vCPU Xeon KVM guest.  A
    // prefetch never faults, so the address may run past the end; it is
    // formed as an integer, not by pointer arithmetic off the array.
    const std::uintptr_t ahead =
        reinterpret_cast<std::uintptr_t>(samples + i) + 2048;
    _mm_prefetch(reinterpret_cast<const char*>(ahead), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ahead + 64), _MM_HINT_T0);
    __m256i fail = _mm256_setzero_si256();
    const __m256i c0 = u16_codes(samples + i, &fail);
    const __m256i c1 = u16_codes(samples + i + 4, &fail);
    const __m256i c2 = u16_codes(samples + i + 8, &fail);
    const __m256i c3 = u16_codes(samples + i + 12, &fail);
    if (_mm256_testz_si256(fail, fail) == 0) return false;
    const __m256i packed = _mm256_packus_epi32(_mm256_packus_epi32(c0, c1),
                                               _mm256_packus_epi32(c2, c3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * i),
                        _mm256_permutevar8x32_epi32(packed, order));
  }
  return true;
}

void unpack_u16_codes_avx2(const unsigned char* in, std::size_t count,
                           double* out) {
  for (std::size_t i = 0; i < count; i += kU16CodecBlock) {
    const __m256i codes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 2 * i));
    const __m256i lo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(codes));
    const __m256i hi =
        _mm256_cvtepu16_epi32(_mm256_extracti128_si256(codes, 1));
    _mm256_storeu_pd(out + i, _mm256_cvtepi32_pd(_mm256_castsi256_si128(lo)));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_cvtepi32_pd(_mm256_extracti128_si256(lo, 1)));
    _mm256_storeu_pd(out + i + 8,
                     _mm256_cvtepi32_pd(_mm256_castsi256_si128(hi)));
    _mm256_storeu_pd(out + i + 12,
                     _mm256_cvtepi32_pd(_mm256_extracti128_si256(hi, 1)));
  }
}

}  // namespace linalg::simd

#else  // non-x86: the dispatcher never selects kAvx2, but the symbols must
       // still link.

#include <bit>

namespace linalg::simd {

bool pack_u16_codes_avx2(const double* samples, std::size_t count,
                         unsigned char* out) {
  constexpr double kTwo52 = 4503599627370496.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double shifted = samples[i] + kTwo52;
    const std::uint64_t code = std::bit_cast<std::uint64_t>(shifted) -
                               std::bit_cast<std::uint64_t>(kTwo52);
    if (code > 0xFFFF || std::bit_cast<std::uint64_t>(shifted - kTwo52) !=
                             std::bit_cast<std::uint64_t>(samples[i])) {
      return false;
    }
    out[2 * i] = static_cast<unsigned char>(code);
    out[2 * i + 1] = static_cast<unsigned char>(code >> 8);
  }
  return true;
}

void unpack_u16_codes_avx2(const unsigned char* in, std::size_t count,
                           double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<double>(in[2 * i] | in[2 * i + 1] << 8);
  }
}

}  // namespace linalg::simd

#endif
