#include "hashing/hash.h"

#include <cstring>

#include "hashing/random.h"

namespace setrec {

PairwiseHash::PairwiseHash(uint64_t seed) {
  uint64_t state = DeriveSeed(seed, /*tag=*/0x70617772ull);  // "pawr"
  do {
    a_ = SplitMix64(&state) & kMersenne61;
  } while (a_ == 0 || a_ >= kMersenne61);
  b_ = SplitMix64(&state) & kMersenne61;
  if (b_ >= kMersenne61) b_ -= kMersenne61;
}

HashFamily::HashFamily(uint64_t seed, uint64_t tag)
    : seed_(DeriveSeed(seed, tag)) {}

uint64_t HashFamily::HashU64(uint64_t x) const { return Mix64(x ^ seed_); }

uint64_t HashFamily::HashU64Indexed(uint64_t x, uint64_t index) const {
  return Mix64(x ^ Mix64(seed_ + 0x9e3779b97f4a7c15ull * (index + 1)));
}

namespace {

// HashBytes: multiply-rotate over 8-byte lanes with a SplitMix finalizer,
// seeded. Only the chain state depends on the seed; the lane and tail mixes
// do not, which is what lets HashBytesPair share them.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;

// LINT(alloc-free) — per-key hashing of blob keys on the IBLT build and
// peel paths.
uint64_t MixedLane(const uint8_t* data) {
  uint64_t lane;
  std::memcpy(&lane, data, 8);
  return Mix64(lane * kPrime2);
}

uint64_t ChainStep(uint64_t h, uint64_t mixed_lane) {
  h ^= mixed_lane;
  h = (h << 27) | (h >> 37);
  return h * kPrime1 + kPrime2;
}

// The mixed final word: the n % 8 trailing bytes, little-endian.
uint64_t MixedTail(const uint8_t* data, size_t n) {
  uint64_t tail = 0;
  int shift = 0;
  for (size_t i = n - n % 8; i < n; ++i, shift += 8) {
    tail |= static_cast<uint64_t>(data[i]) << shift;
  }
  return Mix64(tail + kPrime2);
}

}  // namespace

uint64_t HashFamily::HashBytes(const uint8_t* data, size_t n) const {
  uint64_t h = seed_ ^ (n * kPrime1);
  for (size_t i = 0; i + 8 <= n; i += 8) h = ChainStep(h, MixedLane(data + i));
  return Mix64(h ^ MixedTail(data, n));
}

std::pair<uint64_t, uint64_t> HashFamily::HashBytesPair(const HashFamily& a,
                                                        const HashFamily& b,
                                                        const uint8_t* data,
                                                        size_t n) {
  uint64_t ha = a.seed_ ^ (n * kPrime1);
  uint64_t hb = b.seed_ ^ (n * kPrime1);
  for (size_t i = 0; i + 8 <= n; i += 8) {
    const uint64_t mixed = MixedLane(data + i);
    ha = ChainStep(ha, mixed);
    hb = ChainStep(hb, mixed);
  }
  const uint64_t tail = MixedTail(data, n);
  return {Mix64(ha ^ tail), Mix64(hb ^ tail)};
}
// LINT(end)

bool CpuHasAvx512() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0;
  }();
  return has;
#else
  return false;
#endif
}

uint64_t HashU64SumScalar(const uint64_t* elements, size_t n,
                          const HashFamily& family) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += family.HashU64(elements[i]);
  return sum;
}

uint64_t SetFingerprint(const std::vector<uint64_t>& elements,
                        const HashFamily& family) {
  const size_t n = elements.size();
  const uint64_t sum = CpuHasAvx512()
                           ? HashU64SumAvx512(elements.data(), n, family)
                           : HashU64SumScalar(elements.data(), n, family);
  return sum + Mix64(family.seed() ^ (n * 0x51ed2701eb0aa3ddull));
}

}  // namespace setrec
