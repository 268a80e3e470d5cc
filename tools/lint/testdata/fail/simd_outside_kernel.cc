// LINT-TEST-PATH: src/iblt/iblt.cc
// LINT-TEST: expect simd-outside-kernel
//
// Vector code in a general source file would run without the CpuHasAvx512()
// dispatch and without a scalar twin to test it against.

#include <immintrin.h>

__attribute__((target("avx512f"))) void AddLanes(long long* out) {
  const __m512i x = _mm512_set1_epi64(1);
  _mm512_storeu_si512(out, _mm512_add_epi64(x, x));
}
