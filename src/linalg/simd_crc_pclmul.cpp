// CRC-32 by carry-less-multiply folding (PCLMULQDQ), for io::crc32.
//
// The message is read as a polynomial over GF(2) and reduced modulo the
// zlib polynomial in the bit-reflected domain.  Four 128-bit lanes each
// hold the running remainder of every fourth 16-byte block; one step
// multiplies each lane's two 64-bit halves by x^(512±32) mod P (k1, k2)
// and XORs the next 64 input bytes in, which moves the remainder 512 bits
// forward without changing it mod P.  The lanes then fold into one with
// x^(128±32) mod P (k3, k4), one lane folds the last 16-byte blocks, and
// the 128-bit remainder is cut to 64 bits (k5) and Barrett-reduced to the
// 32-bit register.  Constants and sequence follow Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009), and are the ones zlib and Linux use for this polynomial.
//
// Only PCLMULQDQ and SSE2 are used (the file builds with -mpclmul only),
// so resolve_pclmul() is the whole CPU check.
#include "linalg/simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace linalg::simd {

std::uint32_t crc32_fold_pclmul(const unsigned char* data, std::size_t len,
                                std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // One fold step: the lane's low and high 64-bit halves times the low
  // and high constants of `k`, XORed onto `next`.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x1 =
      _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  len -= 64;
  for (; len >= 64; data += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(data));
    x2 = fold(x2, k1k2, load(data + 16));
    x3 = fold(x3, k1k2, load(data + 32));
    x4 = fold(x4, k1k2, load(data + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; data += 16, len -= 16) {
    x1 = fold(x1, k3k4, load(data));
  }

  // 128 -> 64 bits: the low half times k4 onto the high half, then the
  // low 32 bits times k5 onto the rest.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to 32 bits: quotient by mu = x^64 / P, times P.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

}  // namespace linalg::simd

#else  // non-x86: resolve_pclmul() is always false, but the symbol must
       // still link.

namespace linalg::simd {

std::uint32_t crc32_fold_pclmul(const unsigned char* data, std::size_t len,
                                std::uint32_t crc) {
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

}  // namespace linalg::simd

#endif
