// LINT-TEST-PATH: src/hashing/hash.cc
// LINT-TEST: expect-clean
//
// Comments and strings may name the vector forms: the scalar code says which
// body mirrors it, e.g. _mm512_mullo_epi64 in a __m512i lane, compiled under
// __attribute__((target("avx512f"))) from <immintrin.h>. A plain function
// named target is not an attribute either.

const char* kNote = "see _mm512_add_epi64 and target(\"avx512f\")";

int target(int x) { return x + 1; }

int Retarget() { return target(1); }
