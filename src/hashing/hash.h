#ifndef SETREC_HASHING_HASH_H_
#define SETREC_HASHING_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hashing/random.h"

namespace setrec {

/// The Mersenne prime 2^61 - 1 used for pairwise-independent hashing and for
/// the characteristic-polynomial field GF(p).
inline constexpr uint64_t kMersenne61 = (1ull << 61) - 1;

/// Reduces a 128-bit product modulo 2^61 - 1.
inline uint64_t Mod61(__uint128_t x) {
  uint64_t lo = static_cast<uint64_t>(x) & kMersenne61;
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  // One more fold covers the largest possible inputs.
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

/// M = floor(2^64 / d) for d > 1 (0 otherwise), the reciprocal that
/// ModByReciprocal multiplies by.
constexpr uint64_t ModReciprocal(uint64_t d) {
  return d > 1 ? ~0ull / d + (~0ull % d == d - 1) : 0;
}

/// Exact x % d without a hardware division (0 for d <= 1), from
/// m = ModReciprocal(d): q = mulhi(x, m) is floor(x/d) or one less, so one
/// conditional subtract fixes the remainder. The subtract is a select, not
/// a branch: it is taken for a large share of hashed x.
inline uint64_t ModByReciprocal(uint64_t x, uint64_t d, uint64_t m) {
  if (d <= 1) return 0;
  const uint64_t q =
      static_cast<uint64_t>((static_cast<__uint128_t>(x) * m) >> 64);
  const uint64_t r = x - q * d;
  return r - (r >= d ? d : 0);
}

/// A pairwise-independent hash h(x) = (a*x + b) mod (2^61 - 1), with a != 0.
/// This is the "O(log s)-bit pairwise independent hash" primitive the paper
/// uses for child-set fingerprints and for the l0-estimator's level hash.
class PairwiseHash {
 public:
  /// Draws (a, b) deterministically from `seed`.
  explicit PairwiseHash(uint64_t seed);

  /// Full 61-bit hash value in [0, 2^61 - 1).
  uint64_t Hash(uint64_t x) const {
    __uint128_t ax = static_cast<__uint128_t>(a_) * (x % kMersenne61);
    uint64_t r = Mod61(ax) + b_;
    if (r >= kMersenne61) r -= kMersenne61;
    return r;
  }

  /// Hash reduced to [0, bound).
  uint64_t HashRange(uint64_t x, uint64_t bound) const {
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Hash(x)) * bound) >> 61);
  }

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

 private:
  uint64_t a_;
  uint64_t b_;
};

/// A seeded family of strong (well-mixed) hash functions over 64-bit words
/// and byte strings. Not pairwise independent in the formal sense, but used
/// where the paper needs "a hash function": IBLT bucket choice, checksums,
/// set fingerprints. Both parties construct identical families from the
/// shared public-coin seed.
class HashFamily {
 public:
  /// `seed` selects the family; `tag` selects the member within a protocol.
  HashFamily(uint64_t seed, uint64_t tag);

  /// Hashes a 64-bit key.
  uint64_t HashU64(uint64_t x) const;

  /// Hashes a 64-bit key with an extra index, e.g. one per IBLT partition.
  uint64_t HashU64Indexed(uint64_t x, uint64_t index) const;

  /// Hashes a byte string (xxhash-style multiply-rotate over 8-byte lanes).
  uint64_t HashBytes(const uint8_t* data, size_t n) const;
  uint64_t HashBytes(const std::vector<uint8_t>& data) const {
    return HashBytes(data.data(), data.size());
  }

  /// Hashes one byte string under two families in a single pass: returns
  /// exactly {a.HashBytes(data, n), b.HashBytes(data, n)}. The per-lane mix
  /// and the tail mix do not depend on the seed, so they are computed once
  /// and fed to both chains. This is the IBLT hot path for blob keys, which
  /// hash every key under a bucket and a check family.
  static std::pair<uint64_t, uint64_t> HashBytesPair(const HashFamily& a,
                                                     const HashFamily& b,
                                                     const uint8_t* data,
                                                     size_t n);

  /// Hashes one 64-bit word exactly as HashBytes would hash its 8
  /// little-endian bytes (same value, no memory round-trip). This is the
  /// IBLT hot path for 8-byte keys.
  uint64_t HashWord8(uint64_t lane) const {
    return HashWord8Premixed(MixLane8(lane));
  }

  /// The seed-independent first stage of HashWord8. When the same key is
  /// hashed by several families (IBLT bucket + checksum), compute this once
  /// and feed it to each family's HashWord8Premixed.
  static uint64_t MixLane8(uint64_t lane) {
    return Mix64(lane * 0xc2b2ae3d27d4eb4full);  // kPrime2
  }

  /// Completes HashWord8 from a MixLane8 result; HashWord8Premixed(
  /// MixLane8(lane)) == HashBytes(little-endian bytes of lane, 8).
  uint64_t HashWord8Premixed(uint64_t mixed_lane) const {
    const uint64_t kPrime1 = 0x9e3779b185ebca87ull;
    const uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
    uint64_t h = seed_ ^ (8 * kPrime1);
    h ^= mixed_lane;
    h = (h << 27) | (h >> 37);
    h = h * kPrime1 + kPrime2;
    h ^= Mix64(kPrime2);  // Empty tail word (compile-time constant).
    return Mix64(h);
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

/// True when this CPU, and the OS on it, run AVX-512F, AVX-512DQ and
/// AVX-512BW code (BW for the byte and word masks of the IBLT bodies).
/// Decided once per process by __builtin_cpu_supports, which also checks
/// that the OS saves the vector registers; always false off x86-64.
/// SetFingerprint, every IBLT batch (Iblt::InsertBatch/EraseBatch) and the
/// child-sketch writer (IbltCellDerivation::WriteFixedU64) run their
/// AVX-512 bodies when it is true and their scalar bodies otherwise. There
/// is no option to force either: the two bodies give the same bits.
bool CpuHasAvx512();

/// Order-invariant 64-bit fingerprint of a multiset of 64-bit elements:
/// sum of per-element mixes plus a mixed size term. Summation (rather than
/// XOR) makes the fingerprint sensitive to element multiplicity, so the same
/// function serves sets and multisets (Section 3.4). This is the "hash of
/// each of the sets" the paper's protocols use to ward against checksum
/// failures and to identify which child set an encoding belongs to.
///
/// The element sum, Σ family.HashU64(e) mod 2^64, has two bodies:
/// HashU64SumScalar, one element at a time, and HashU64SumAvx512, eight
/// lanes per instruction. The body is chosen by CPU (CpuHasAvx512). A sum
/// mod 2^64 does not depend on the order of its terms, so the fingerprint
/// does not depend on which body ran. The scalar body is the reference,
/// and it stays tested on AVX-512 hosts.
uint64_t SetFingerprint(const std::vector<uint64_t>& elements,
                        const HashFamily& family);

/// The two bodies of SetFingerprint's element sum over elements[0, n).
/// HashU64SumAvx512 requires CpuHasAvx512(); it reads no element past n.
uint64_t HashU64SumScalar(const uint64_t* elements, size_t n,
                          const HashFamily& family);
uint64_t HashU64SumAvx512(const uint64_t* elements, size_t n,
                          const HashFamily& family);

}  // namespace setrec

#endif  // SETREC_HASHING_HASH_H_
