#ifndef SETREC_HASHING_MIX_AVX512_H_
#define SETREC_HASHING_MIX_AVX512_H_

// Eight-lane AVX-512F/DQ forms of the hashing/hash.h mixers, shared by the
// AVX-512 bodies of SetFingerprint (hashing/hash_avx512.cc) and of the IBLT
// block step, batch loop and child-sketch writer (iblt/iblt_avx512.cc).
// Each function computes, in every 64-bit lane, exactly what its scalar
// namesake computes: the arithmetic is the same wrapping 64-bit multiply,
// add, xor, shift and rotate, so the bytes never depend on which body ran.
//
// Every function carries its own target attribute (F, DQ and BW: the BW
// byte and word masks serve the IBLT bodies), so this header compiles in
// any translation unit without -mavx512f; only the two bodies call it,
// after CpuHasAvx512() (hashing/hash.h) said yes. This file and the two
// bodies are the only places setrec_lint's simd-outside-kernel rule admits
// intrinsics.

#include <cstdint>

#include "hashing/random.h"

#if defined(__x86_64__)
// GCC 12's AVX-512 headers make their don't-care vectors by
// self-initialization (`__m512i __Y = __Y;` in _mm512_undefined_epi32 and
// kin), which its own -Wuninitialized then reports inside every caller at
// -O2: a false positive on a value the instruction never reads. The
// suppression covers the header's lines only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#define SETREC_AVX512_TARGET \
  __attribute__((target("avx512f,avx512dq,avx512bw")))

namespace setrec::avx512 {

// LINT(alloc-free) — per-lane mixing under both bodies' vector loops.
SETREC_AVX512_TARGET inline __m512i Splat(uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

/// Mix64 (hashing/random.h) in each lane.
SETREC_AVX512_TARGET inline __m512i Mix64(__m512i x) {
  __m512i z = _mm512_add_epi64(x, Splat(0x9e3779b97f4a7c15ull));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         Splat(0xbf58476d1ce4e5b9ull));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         Splat(0x94d049bb133111ebull));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// HashFamily::MixLane8 in each lane.
SETREC_AVX512_TARGET inline __m512i MixLane8(__m512i lane) {
  return Mix64(_mm512_mullo_epi64(lane, Splat(0xc2b2ae3d27d4eb4full)));
}

/// HashFamily::HashWord8Premixed in each lane, for the family whose seed
/// is `seed`.
SETREC_AVX512_TARGET inline __m512i HashWord8Premixed(uint64_t seed,
                                                      __m512i mixed_lane) {
  constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
  constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
  __m512i h = _mm512_xor_si512(Splat(seed ^ (8 * kPrime1)), mixed_lane);
  h = _mm512_rol_epi64(h, 27);
  h = _mm512_add_epi64(_mm512_mullo_epi64(h, Splat(kPrime1)), Splat(kPrime2));
  h = _mm512_xor_si512(h, Splat(setrec::Mix64(kPrime2)));
  return Mix64(h);
}

/// One step of HashFamily::HashBytes's chain (hashing/hash.cc) in each
/// lane: h ^= mixed_lane, rotate left by 27, then h * kPrime1 + kPrime2.
SETREC_AVX512_TARGET inline __m512i BytesChainStep(__m512i h,
                                                   __m512i mixed_lane) {
  h = _mm512_rol_epi64(_mm512_xor_si512(h, mixed_lane), 27);
  return _mm512_add_epi64(_mm512_mullo_epi64(h, Splat(0x9e3779b185ebca87ull)),
                          Splat(0xc2b2ae3d27d4eb4full));
}

/// The high 64 bits of each lane's 128-bit product a * b, from four 32-bit
/// products (AVX-512 has no 64-bit high multiply).
SETREC_AVX512_TARGET inline __m512i MulHi64(__m512i a, __m512i b) {
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  // Neither sum wraps: a 32x32-bit product plus a 32-bit value fits.
  const __m512i mid = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
  const __m512i mid2 =
      _mm512_add_epi64(lh, _mm512_and_si512(mid, Splat(0xffffffffull)));
  return _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(mid, 32)),
                          _mm512_srli_epi64(mid2, 32));
}
// LINT(end)

}  // namespace setrec::avx512

#endif  // defined(__x86_64__)

#endif  // SETREC_HASHING_MIX_AVX512_H_
