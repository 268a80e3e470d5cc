// The AVX-512 body of SetFingerprint's element sum (see hashing/hash.h):
// Mix64(e ^ seed) for eight elements per instruction, summed lane-wise and
// then across lanes. A sum mod 2^64 is the same in any order, so it equals
// HashU64SumScalar exactly.

#include "hashing/hash.h"
#include "hashing/mix_avx512.h"

namespace setrec {

#if defined(__x86_64__)

namespace {

// LINT(alloc-free) — every child fingerprint and parent fingerprint of the
// set-of-sets protocols, on both parties.
SETREC_AVX512_TARGET uint64_t SumMix64(const uint64_t* elements, size_t n,
                                       uint64_t seed) {
  const __m512i seed_v = avx512::Splat(seed);
  __m512i sum = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(elements + i);
    sum = _mm512_add_epi64(sum, avx512::Mix64(_mm512_xor_si512(x, seed_v)));
  }
  if (i < n) {
    // The tail loads and sums only its own lanes.
    const __mmask8 lanes = static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i x = _mm512_maskz_loadu_epi64(lanes, elements + i);
    sum = _mm512_mask_add_epi64(
        sum, lanes, sum, avx512::Mix64(_mm512_xor_si512(x, seed_v)));
  }
  // Across the lanes in unsigned arithmetic: GCC's _mm512_reduce_add_epi64
  // adds signed lanes, whose wrap is undefined behaviour.
  alignas(64) uint64_t sums[8];
  _mm512_store_si512(sums, sum);
  uint64_t total = 0;
  for (uint64_t lane_sum : sums) total += lane_sum;
  return total;
}
// LINT(end)

}  // namespace

uint64_t HashU64SumAvx512(const uint64_t* elements, size_t n,
                          const HashFamily& family) {
  return SumMix64(elements, n, family.seed());
}

#else  // !defined(__x86_64__): CpuHasAvx512() is false, so this never runs.

uint64_t HashU64SumAvx512(const uint64_t* elements, size_t n,
                          const HashFamily& family) {
  return HashU64SumScalar(elements, n, family);
}

#endif

}  // namespace setrec
