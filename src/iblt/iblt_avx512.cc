// The AVX-512 bodies of the IBLT block step, the batch updates and the
// child-sketch register writer (see iblt/iblt.h):
//  * IbltCellDerivation::BlockStepAvx512 hashes eight keys per instruction:
//    8-byte keys through the shared lane mix and both families'
//    HashWord8Premixed chains, wider keys through HashBytesPair's lane
//    mixes and both chains, from unit-stride 64-byte loads transposed in
//    registers. It then runs the k sub-mixes Mix64(bucket ^ GOLDEN * (i+1))
//    and the exact `sub % (m/k)` of IbltCellDerivation::Cell, as a mask
//    when m/k is a power of two and from 32-bit products otherwise.
//  * Iblt::UpdateCellsAvx512 XORs each key wider than 8 bytes into its
//    cells 64 bytes at a time.
//  * IbltCellDerivation::WriteRegistersAvx512 keeps a small child sketch's
//    counts, checks and key lanes in registers.
// Every lane computes exactly what the scalar bodies compute for its key,
// so every table and blob is the same whichever body ran.

#include <algorithm>

#include "hashing/hash.h"
#include "hashing/mix_avx512.h"
#include "iblt/iblt.h"

namespace setrec {

#if defined(__x86_64__)

namespace {

constexpr size_t kBlockKeys = IbltCellDerivation::kBlockKeys;

struct BlockParams {
  uint64_t bucket_seed;
  uint64_t check_seed;
  uint64_t width;       // m/k.
  uint64_t magic;       // floor(2^64 / width), as in IbltCellDerivation.
  uint64_t width_mask;  // width - 1 when width is a power of two, else 0.
  bool by_mask;         // width is 0, 1 or a power of two.
  size_t key_width;
};

BlockParams MakeParams(uint64_t bucket_seed, uint64_t check_seed,
                       uint64_t width, uint64_t magic, size_t key_width) {
  const bool by_mask = (width & (width - 1)) == 0;
  // Widths 0 and 1 leave every remainder 0, as Cell() does.
  const uint64_t width_mask = by_mask && width > 1 ? width - 1 : 0;
  return {bucket_seed, check_seed, width, magic, width_mask, by_mask,
          key_width};
}

// LINT(alloc-free) — every block of keys of every IBLT batch and child
// sketch, on hosts with AVX-512.

// The lanes of keys[at, at + 8) below n; none once at >= n.
SETREC_AVX512_TARGET inline __mmask8 LaneMask(size_t n, size_t at) {
  if (at >= n) return 0;
  return n - at >= 8 ? static_cast<__mmask8>(0xff)
                     : static_cast<__mmask8>((1u << (n - at)) - 1);
}

// A 64-bit multiply takes many cycles to finish, so each step works on
// `Vectors` groups of eight keys whose multiply chains do not depend on one
// another, and the pipeline overlaps them.

// Check and bucket hashes of the 8-byte keys[j, j + 8 * Vectors).
template <size_t Vectors>
SETREC_AVX512_TARGET inline void HashWordKeys(const BlockParams& p,
                                              const uint8_t* keys, size_t n,
                                              size_t j, uint64_t* checks,
                                              uint64_t* buckets) {
  __m512i mixed[Vectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    const size_t at = j + 8 * v;
    mixed[v] = avx512::MixLane8(
        _mm512_maskz_loadu_epi64(LaneMask(n, at), keys + 8 * at));
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

// rows[t] = bytes [offset, offset + 64) of key j + t as eight 64-bit lanes,
// zero past the `bytes` mask and for keys at or past n. The masked load
// reads nothing it masks off, so nothing past the n-th key.
SETREC_AVX512_TARGET inline void LoadRows(const uint8_t* keys, size_t width,
                                          size_t n, size_t j, size_t offset,
                                          __mmask64 bytes, __m512i* rows) {
#pragma GCC unroll 8
  for (size_t t = 0; t < 8; ++t) {
    const size_t key = j + t < n ? j + t : 0;
    const __mmask64 mask = j + t < n ? bytes : 0;
    rows[t] = _mm512_maskz_loadu_epi8(mask, keys + key * width + offset);
  }
}

// Transposes eight rows of eight 64-bit lanes in place: afterwards r[l]
// holds lane l of every row, row t in lane t.
SETREC_AVX512_TARGET inline void Transpose8x8(__m512i* r) {
  // Pairs of rows interleaved: t0 holds lanes 0, 2, 4, 6 of rows 0 and 1,
  // t1 their lanes 1, 3, 5, 7.
  const __m512i t0 = _mm512_unpacklo_epi64(r[0], r[1]);
  const __m512i t1 = _mm512_unpackhi_epi64(r[0], r[1]);
  const __m512i t2 = _mm512_unpacklo_epi64(r[2], r[3]);
  const __m512i t3 = _mm512_unpackhi_epi64(r[2], r[3]);
  const __m512i t4 = _mm512_unpacklo_epi64(r[4], r[5]);
  const __m512i t5 = _mm512_unpackhi_epi64(r[4], r[5]);
  const __m512i t6 = _mm512_unpacklo_epi64(r[6], r[7]);
  const __m512i t7 = _mm512_unpackhi_epi64(r[6], r[7]);
  // 128-bit pieces: 0x88 takes pieces 0 and 2 of each source, 0xdd pieces
  // 1 and 3. u0 holds lanes 0 and 4 of rows 0-3, u1 lanes 2 and 6, u2
  // lanes 1 and 5, u3 lanes 3 and 7; u4-u7 the same of rows 4-7.
  const __m512i u0 = _mm512_shuffle_i64x2(t0, t2, 0x88);
  const __m512i u1 = _mm512_shuffle_i64x2(t0, t2, 0xdd);
  const __m512i u2 = _mm512_shuffle_i64x2(t1, t3, 0x88);
  const __m512i u3 = _mm512_shuffle_i64x2(t1, t3, 0xdd);
  const __m512i u4 = _mm512_shuffle_i64x2(t4, t6, 0x88);
  const __m512i u5 = _mm512_shuffle_i64x2(t4, t6, 0xdd);
  const __m512i u6 = _mm512_shuffle_i64x2(t5, t7, 0x88);
  const __m512i u7 = _mm512_shuffle_i64x2(t5, t7, 0xdd);
  r[0] = _mm512_shuffle_i64x2(u0, u4, 0x88);
  r[4] = _mm512_shuffle_i64x2(u0, u4, 0xdd);
  r[2] = _mm512_shuffle_i64x2(u1, u5, 0x88);
  r[6] = _mm512_shuffle_i64x2(u1, u5, 0xdd);
  r[1] = _mm512_shuffle_i64x2(u2, u6, 0x88);
  r[5] = _mm512_shuffle_i64x2(u2, u6, 0xdd);
  r[3] = _mm512_shuffle_i64x2(u3, u7, 0x88);
  r[7] = _mm512_shuffle_i64x2(u3, u7, 0xdd);
}

// Check and bucket hashes of the 8 * Groups keys from key j on, each
// p.key_width bytes: HashFamily::HashBytesPair in each lane. Each 64-byte
// chunk of eight keys is loaded and transposed, so that the chain steps
// read one key's next 8 bytes per lane. The final chunk holds the last
// full lanes, then the `key_width % 8` tail bytes, zero-padded to a word
// by the byte mask: MixedTail's word.
template <size_t Groups>
SETREC_AVX512_TARGET inline void HashBlobKeys(const BlockParams& p,
                                              const uint8_t* keys, size_t n,
                                              size_t j, uint64_t* checks,
                                              uint64_t* buckets) {
  constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
  constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
  const size_t w = p.key_width;
  const size_t whole = w / 64;  // Chunks of eight full lanes.
  const size_t left = w % 64;   // Bytes of the final chunk.
  __m512i hb[Groups];
  __m512i hc[Groups];
  __m512i tail[Groups];
  __m512i rows[Groups][8];
#pragma GCC unroll 2
  for (size_t g = 0; g < Groups; ++g) {
    hb[g] = avx512::Splat(p.bucket_seed ^ (w * kPrime1));
    hc[g] = avx512::Splat(p.check_seed ^ (w * kPrime1));
    tail[g] = _mm512_setzero_si512();
  }
  for (size_t c = 0; c < whole; ++c) {
#pragma GCC unroll 2
    for (size_t g = 0; g < Groups; ++g) {
      LoadRows(keys, w, n, j + 8 * g, 64 * c, ~__mmask64{0}, rows[g]);
      Transpose8x8(rows[g]);
    }
#pragma GCC unroll 8
    for (size_t s = 0; s < 8; ++s) {
#pragma GCC unroll 2
      for (size_t g = 0; g < Groups; ++g) {
        const __m512i mixed = avx512::MixLane8(rows[g][s]);
        hb[g] = avx512::BytesChainStep(hb[g], mixed);
        hc[g] = avx512::BytesChainStep(hc[g], mixed);
      }
    }
  }
  if (left != 0) {
    const size_t lanes = left / 8;
    const __mmask64 bytes = (__mmask64{1} << left) - 1;
#pragma GCC unroll 2
    for (size_t g = 0; g < Groups; ++g) {
      LoadRows(keys, w, n, j + 8 * g, 64 * whole, bytes, rows[g]);
      Transpose8x8(rows[g]);
    }
#pragma GCC unroll 8
    for (size_t s = 0; s < 8; ++s) {
      if (s < lanes) {
#pragma GCC unroll 2
        for (size_t g = 0; g < Groups; ++g) {
          const __m512i mixed = avx512::MixLane8(rows[g][s]);
          hb[g] = avx512::BytesChainStep(hb[g], mixed);
          hc[g] = avx512::BytesChainStep(hc[g], mixed);
        }
      } else if (s == lanes) {
#pragma GCC unroll 2
        for (size_t g = 0; g < Groups; ++g) tail[g] = rows[g][s];
      }
    }
  }
#pragma GCC unroll 2
  for (size_t g = 0; g < Groups; ++g) {
    const __m512i tail_mix =
        avx512::Mix64(_mm512_add_epi64(tail[g], avx512::Splat(kPrime2)));
    _mm512_storeu_si512(checks + j + 8 * g,
                        avx512::Mix64(_mm512_xor_si512(hc[g], tail_mix)));
    _mm512_storeu_si512(buckets + j + 8 * g,
                        avx512::Mix64(_mm512_xor_si512(hb[g], tail_mix)));
  }
}

// Check and bucket hashes of keys[0, n), n <= kBlockKeys: HashWordBlock
// for 8-byte keys, HashBlock for any width. Lanes past n are hashed from
// zero bytes, and their results land in array slots no caller reads: j
// stays a multiple of 8 below n, so no store leaves the arrays.
SETREC_AVX512_TARGET inline void HashWordBlock(const BlockParams& p,
                                               const uint8_t* keys, size_t n,
                                               uint64_t* checks,
                                               uint64_t* buckets) {
  size_t j = 0;
  for (; j + 64 <= n; j += 64) HashWordKeys<8>(p, keys, n, j, checks, buckets);
  for (; j < n; j += 8) HashWordKeys<1>(p, keys, n, j, checks, buckets);
}

SETREC_AVX512_TARGET inline void HashBlock(const BlockParams& p,
                                           const uint8_t* keys, size_t n,
                                           uint64_t* checks,
                                           uint64_t* buckets) {
  if (p.key_width == 8) {
    HashWordBlock(p, keys, n, checks, buckets);
    return;
  }
  size_t j = 0;
  for (; j + 16 <= n; j += 16) HashBlobKeys<2>(p, keys, n, j, checks, buckets);
  for (; j < n; j += 8) HashBlobKeys<1>(p, keys, n, j, checks, buckets);
}

// Cells under hash index `index` of the keys whose bucket hashes are
// buckets[j, j + 8 * Vectors).
template <size_t Vectors>
SETREC_AVX512_TARGET inline void Cells(const BlockParams& p, uint64_t index,
                                       const uint64_t* buckets, size_t j,
                                       __m512i* cells) {
  const __m512i salt =
      avx512::Splat(uint64_t{0x9e3779b97f4a7c15} * (index + 1));
  __m512i sub[Vectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    sub[v] = avx512::Mix64(
        _mm512_xor_si512(_mm512_loadu_si512(buckets + j + 8 * v), salt));
  }
  const __m512i base = avx512::Splat(index * p.width);
  if (p.by_mask) {
    // sub % width for a power-of-two width.
    const __m512i mask = avx512::Splat(p.width_mask);
#pragma GCC unroll 8
    for (size_t v = 0; v < Vectors; ++v) {
      cells[v] = _mm512_add_epi64(_mm512_and_si512(sub[v], mask), base);
    }
    return;
  }
  // Cell()'s reciprocal remainder: q = mulhi(sub, magic) is sub / width or
  // one less, and one conditional subtract fixes the remainder.
  const __m512i width = avx512::Splat(p.width);
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    const __m512i q = avx512::MulHi64(sub[v], avx512::Splat(p.magic));
    __m512i r = _mm512_sub_epi64(sub[v], _mm512_mullo_epi64(q, width));
    r = _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, width), r, width);
    cells[v] = _mm512_add_epi64(r, base);
  }
}

template <size_t Vectors>
SETREC_AVX512_TARGET inline void StoreCells(const BlockParams& p,
                                            uint64_t index,
                                            const uint64_t* buckets, size_t j,
                                            size_t* out) {
  __m512i cells[Vectors];
  Cells<Vectors>(p, index, buckets, j, cells);
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    _mm512_storeu_si512(out + j + 8 * v, cells[v]);
  }
}

SETREC_AVX512_TARGET void BlockStep(const BlockParams& p, const uint8_t* keys,
                                    size_t n, int first, int count,
                                    IbltCellDerivation::BlockHashes* out) {
  alignas(64) uint64_t buckets[kBlockKeys];
  HashBlock(p, keys, n, out->checks, buckets);
  for (int i = 0; i < count; ++i) {
    const uint64_t index = static_cast<uint64_t>(first + i);
    size_t j = 0;
    for (; j + 64 <= n; j += 64) {
      StoreCells<8>(p, index, buckets, j, out->cells[i]);
    }
    for (; j < n; j += 8) StoreCells<1>(p, index, buckets, j, out->cells[i]);
  }
}

// Bit c of masks[j] set for each of the k cells of key j, for the keys
// whose bucket hashes are buckets[j, j + 8 * Vectors); cells below 64.
template <size_t Vectors>
SETREC_AVX512_TARGET inline void StoreCellMasks(const BlockParams& p, int k,
                                                const uint64_t* buckets,
                                                size_t j, uint64_t* masks) {
  const __m512i one = avx512::Splat(1);
  __m512i bits[Vectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) bits[v] = _mm512_setzero_si512();
  for (int i = 0; i < k; ++i) {
    __m512i cells[Vectors];
    Cells<Vectors>(p, static_cast<uint64_t>(i), buckets, j, cells);
#pragma GCC unroll 8
    for (size_t v = 0; v < Vectors; ++v) {
      bits[v] = _mm512_or_si512(bits[v], _mm512_sllv_epi64(one, cells[v]));
    }
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < Vectors; ++v) {
    _mm512_storeu_si512(masks + j + 8 * v, bits[v]);
  }
}

// The low `bits` bits set, bits <= 64.
inline uint64_t LowBits(size_t bits) {
  return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
}

// The register body of the child-sketch writer for `cells` <= 32 cells,
// k <= 8 and a 2-byte check: the counts in the byte lanes of one vector,
// the checks in the word lanes of another, the key lanes of cells
// [8b, 8b + 8) in banks[b]. Each key's cell mask adds one to its counts and
// XORs its check and its value into its cells; the three sections are
// stored once at the end. Counts wrap mod 256 as the scalar writer's bytes
// do, and a check keeps its low 2 bytes. Banks is ⌈cells / 8⌉, so a sketch
// of 8 cells XORs each key into one bank, not four.
template <size_t Banks>
SETREC_AVX512_TARGET void WriteRegisters(const BlockParams& p, int k,
                                         const uint64_t* keys, size_t n,
                                         size_t cells, uint8_t* out) {
  alignas(64) uint64_t checks[kBlockKeys];
  alignas(64) uint64_t buckets[kBlockKeys];
  alignas(64) uint64_t masks[kBlockKeys];
  const __m512i one = _mm512_set1_epi8(1);
  __m512i counts = _mm512_setzero_si512();
  __m512i words = _mm512_setzero_si512();
  __m512i banks[Banks];
#pragma GCC unroll 4
  for (size_t b = 0; b < Banks; ++b) banks[b] = _mm512_setzero_si512();
  for (size_t first = 0; first < n; first += kBlockKeys) {
    const size_t block = std::min(n - first, kBlockKeys);
    const uint64_t* block_keys = keys + first;
    HashWordBlock(p, reinterpret_cast<const uint8_t*>(block_keys), block,
                  checks, buckets);
    size_t j = 0;
    for (; j + 64 <= block; j += 64) StoreCellMasks<8>(p, k, buckets, j, masks);
    for (; j < block; j += 8) StoreCellMasks<1>(p, k, buckets, j, masks);
    for (j = 0; j < block; ++j) {
      const uint64_t mask = masks[j];
      counts = _mm512_mask_add_epi8(counts, mask, counts, one);
      words = _mm512_xor_si512(
          words, _mm512_maskz_set1_epi16(static_cast<__mmask32>(mask),
                                         static_cast<short>(checks[j])));
      const __m512i key = avx512::Splat(block_keys[j]);
#pragma GCC unroll 4
      for (size_t b = 0; b < Banks; ++b) {
        banks[b] = _mm512_mask_xor_epi64(
            banks[b], static_cast<__mmask8>(mask >> (8 * b)), banks[b], key);
      }
    }
  }
  _mm512_mask_storeu_epi8(out, LowBits(cells), counts);
  _mm512_mask_storeu_epi16(out + cells, static_cast<__mmask32>(LowBits(cells)),
                           words);
  uint8_t* lanes = out + 3 * cells;
#pragma GCC unroll 4
  for (size_t b = 0; b < Banks; ++b) {
    const size_t bank_cells = std::min<size_t>(cells - 8 * b, 8);
    _mm512_mask_storeu_epi64(lanes + 64 * b,
                             static_cast<__mmask8>(LowBits(bank_cells)),
                             banks[b]);
  }
}

// Iblt::UpdateCellsAvx512: count, checksum and key of each of keys[0, n)
// into its cells, partition by partition; each key XORed 64 bytes at a
// time, its last chunk through a byte mask that stops at key_width.
SETREC_AVX512_TARGET void UpdateCells(
    const IbltCellDerivation::BlockHashes& hashes, int count,
    const uint8_t* keys, size_t n, size_t key_width, size_t lanes_per_key,
    int32_t delta, IbltCellMeta* meta, uint64_t* lanes) {
  const size_t whole = key_width / 64;
  const __mmask64 last = (__mmask64{1} << (key_width % 64)) - 1;
  for (int i = 0; i < count; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const size_t cell = hashes.cells[i][j];
      meta[cell].count += delta;
      meta[cell].check ^= hashes.checks[j];
      auto* dst = reinterpret_cast<uint8_t*>(lanes + cell * lanes_per_key);
      const uint8_t* key = keys + j * key_width;
      for (size_t c = 0; c < whole; ++c) {
        _mm512_storeu_si512(
            dst + 64 * c, _mm512_xor_si512(_mm512_loadu_si512(dst + 64 * c),
                                           _mm512_loadu_si512(key + 64 * c)));
      }
      if (last != 0) {
        const size_t at = 64 * whole;
        _mm512_mask_storeu_epi8(
            dst + at, last,
            _mm512_xor_si512(_mm512_maskz_loadu_epi8(last, dst + at),
                             _mm512_maskz_loadu_epi8(last, key + at)));
      }
    }
  }
}
// LINT(end)

}  // namespace

void IbltCellDerivation::BlockStepAvx512(const uint8_t* keys, size_t n,
                                         int first, int count,
                                         BlockHashes* out) const {
  BlockStep(MakeParams(bucket_.seed(), check_.seed(), cells_per_hash_,
                       mod_magic_, key_width_),
            keys, n, first, count, out);
}

void IbltCellDerivation::WriteRegistersAvx512(const uint64_t* keys, size_t n,
                                               uint8_t* out) const {
  const BlockParams p = MakeParams(bucket_.seed(), check_.seed(),
                                   cells_per_hash_, mod_magic_, key_width_);
  const size_t cells = cells_per_hash_ * static_cast<size_t>(num_hashes_);
  switch ((cells + 7) / 8) {
    case 0:
    case 1:
      WriteRegisters<1>(p, num_hashes_, keys, n, cells, out);
      return;
    case 2:
      WriteRegisters<2>(p, num_hashes_, keys, n, cells, out);
      return;
    case 3:
      WriteRegisters<3>(p, num_hashes_, keys, n, cells, out);
      return;
    default:
      WriteRegisters<4>(p, num_hashes_, keys, n, cells, out);
      return;
  }
}

void Iblt::UpdateCellsAvx512(const IbltCellDerivation::BlockHashes& hashes,
                             int count, const uint8_t* keys, size_t n,
                             size_t key_width, size_t lanes_per_key,
                             int32_t delta, IbltCellMeta* meta,
                             uint64_t* lanes) {
  UpdateCells(hashes, count, keys, n, key_width, lanes_per_key, delta, meta,
              lanes);
}

#else  // !defined(__x86_64__): CpuHasAvx512() is false, so none runs.

void IbltCellDerivation::BlockStepAvx512(const uint8_t* keys, size_t n,
                                         int first, int count,
                                         BlockHashes* out) const {
  BlockStepScalar(keys, n, first, count, out);
}

void IbltCellDerivation::WriteRegistersAvx512(const uint64_t* keys, size_t n,
                                               uint8_t* out) const {
  WriteFixedU64Scalar(keys, n, out);
}

void Iblt::UpdateCellsAvx512(const IbltCellDerivation::BlockHashes& hashes,
                             int count, const uint8_t* keys, size_t n,
                             size_t key_width, size_t lanes_per_key,
                             int32_t delta, IbltCellMeta* meta,
                             uint64_t* lanes) {
  for (int i = 0; i < count; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const size_t cell = hashes.cells[i][j];
      meta[cell].count += delta;
      meta[cell].check ^= hashes.checks[j];
      auto* dst = reinterpret_cast<uint8_t*>(lanes + cell * lanes_per_key);
      for (size_t b = 0; b < key_width; ++b) dst[b] ^= keys[j * key_width + b];
    }
  }
}

#endif

}  // namespace setrec
