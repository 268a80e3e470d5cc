// LINT-TEST-PATH: src/iblt/iblt_avx512.cc
// LINT-TEST: expect-clean
//
// The AVX-512 bodies and their shared helper are the sanctioned home for
// intrinsics and target attributes; every form the rule knows passes here.

#include <immintrin.h>

__attribute__((target("avx512f,avx512dq"))) void AddLanes(long long* out) {
  const __m512i x = _mm512_set1_epi64(1);
  const __mmask8 lanes = 0x0f;
  _mm512_mask_storeu_epi64(out, lanes, _mm512_add_epi64(x, x));
}
