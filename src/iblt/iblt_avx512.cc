// The AVX-512 body of the child-sketch writer's block step
// (IbltCellDerivation::BlockStepAvx512, see iblt/iblt.h): for eight keys per
// instruction, the shared lane mix, both families' HashWord8Premixed chains
// and the k sub-mixes Mix64(bucket ^ GOLDEN * (i+1)), then the exact
// `sub % (m/k)` reduction of IbltCellDerivation::Cell from 32-bit products.
// Every lane computes exactly what BlockStepScalar computes for its key.

#include "hashing/hash.h"
#include "hashing/mix_avx512.h"
#include "iblt/iblt.h"

namespace setrec {

#if defined(__x86_64__)

namespace {

struct BlockParams {
  uint64_t bucket_seed;
  uint64_t check_seed;
  uint64_t width;  // m/k.
  uint64_t magic;  // floor(2^64 / width), as in IbltCellDerivation.
};

// LINT(alloc-free) — every block of keys of every child sketch the
// set-of-sets protocols write, on hosts with AVX-512.

// The lanes of keys[at, at + 8) below n; none once at >= n.
SETREC_AVX512_TARGET inline __mmask8 LaneMask(size_t n, size_t at) {
  if (at >= n) return 0;
  return n - at >= 8 ? static_cast<__mmask8>(0xff)
                     : static_cast<__mmask8>((1u << (n - at)) - 1);
}

// A 64-bit multiply takes many cycles to finish, so each step works on
// `Vectors` groups of eight keys whose multiply chains do not depend on one
// another, and the pipeline overlaps them.

// Check and bucket hashes of keys[j, j + 8 * Vectors).
template <size_t Vectors>
SETREC_AVX512_TARGET inline void HashKeys(const BlockParams& p,
                                          const uint64_t* keys, size_t n,
                                          size_t j, uint64_t* checks,
                                          uint64_t* buckets) {
  __m512i mixed[Vectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    const size_t at = j + 8 * v;
    mixed[v] =
        avx512::MixLane8(_mm512_maskz_loadu_epi64(LaneMask(n, at), keys + at));
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    _mm512_storeu_si512(checks + j + 8 * v,
                        avx512::HashWord8Premixed(p.check_seed, mixed[v]));
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    _mm512_storeu_si512(buckets + j + 8 * v,
                        avx512::HashWord8Premixed(p.bucket_seed, mixed[v]));
  }
}

// Cells under hash index `index` of the keys whose bucket hashes are
// buckets[j, j + 8 * Vectors).
template <size_t Vectors>
SETREC_AVX512_TARGET inline void CellKeys(const BlockParams& p,
                                          uint64_t index,
                                          const uint64_t* buckets, size_t j,
                                          size_t* cells) {
  const __m512i width = avx512::Splat(p.width);
  const __m512i salt =
      avx512::Splat(uint64_t{0x9e3779b97f4a7c15} * (index + 1));
  __m512i sub[Vectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    const size_t at = j + 8 * v;
    sub[v] = avx512::Mix64(
        _mm512_xor_si512(_mm512_loadu_si512(buckets + at), salt));
  }
  // Cell()'s reciprocal remainder: q = mulhi(sub, magic) is sub / width or
  // one less, and one conditional subtract fixes the remainder.
  __m512i r[Vectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    if (p.width > 1) {
      const __m512i q = avx512::MulHi64(sub[v], avx512::Splat(p.magic));
      r[v] = _mm512_sub_epi64(sub[v], _mm512_mullo_epi64(q, width));
      r[v] = _mm512_mask_sub_epi64(
          r[v], _mm512_cmpge_epu64_mask(r[v], width), r[v], width);
    } else {
      r[v] = _mm512_setzero_si512();
    }
  }
  const __m512i base = avx512::Splat(index * p.width);
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    _mm512_storeu_si512(cells + j + 8 * v, _mm512_add_epi64(r[v], base));
  }
}

// Steps of 64 keys, then of 8. Lanes past n are hashed from zero keys, and
// their results land in array slots the writer never reads: j stays a
// multiple of 8 below n <= kBlockKeys, so no store leaves the arrays, and
// the key loads are masked, so no load reads past keys[n - 1].
SETREC_AVX512_TARGET void BlockStep(const BlockParams& p,
                                    const uint64_t* keys, size_t n, int first,
                                    int count,
                                    IbltCellDerivation::BlockHashes* out) {
  alignas(64) uint64_t buckets[IbltCellDerivation::kBlockKeys];
  size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    HashKeys<8>(p, keys, n, j, out->checks, buckets);
  }
  for (; j < n; j += 8) HashKeys<1>(p, keys, n, j, out->checks, buckets);
  for (int i = 0; i < count; ++i) {
    const uint64_t index = static_cast<uint64_t>(first + i);
    for (j = 0; j + 64 <= n; j += 64) {
      CellKeys<8>(p, index, buckets, j, out->cells[i]);
    }
    for (; j < n; j += 8) CellKeys<1>(p, index, buckets, j, out->cells[i]);
  }
}
// LINT(end)

}  // namespace

void IbltCellDerivation::BlockStepAvx512(const uint64_t* keys, size_t n,
                                         int first, int count,
                                         BlockHashes* out) const {
  BlockStep({bucket_.seed(), check_.seed(), cells_per_hash_, mod_magic_}, keys,
            n, first, count, out);
}

#else  // !defined(__x86_64__): CpuHasAvx512() is false, so this never runs.

void IbltCellDerivation::BlockStepAvx512(const uint64_t* keys, size_t n,
                                         int first, int count,
                                         BlockHashes* out) const {
  BlockStepScalar(keys, n, first, count, out);
}

#endif

}  // namespace setrec
