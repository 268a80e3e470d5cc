#include "hashing/hash.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

namespace setrec {
namespace {

TEST(Mod61Test, SmallValues) {
  EXPECT_EQ(Mod61(0), 0u);
  EXPECT_EQ(Mod61(1), 1u);
  EXPECT_EQ(Mod61(kMersenne61 - 1), kMersenne61 - 1);
  EXPECT_EQ(Mod61(kMersenne61), 0u);
  EXPECT_EQ(Mod61(kMersenne61 + 5), 5u);
}

TEST(Mod61Test, LargeProducts) {
  // (p-1)^2 mod p == 1.
  __uint128_t sq =
      static_cast<__uint128_t>(kMersenne61 - 1) * (kMersenne61 - 1);
  EXPECT_EQ(Mod61(sq), 1u);
}

TEST(PairwiseHashTest, DeterministicPerSeed) {
  PairwiseHash h1(3), h2(3), h3(4);
  EXPECT_EQ(h1.Hash(100), h2.Hash(100));
  EXPECT_NE(h1.a(), h3.a());
}

TEST(PairwiseHashTest, OutputsInField) {
  PairwiseHash h(9);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h.Hash(x), kMersenne61);
  }
}

TEST(PairwiseHashTest, HashRangeBounded) {
  PairwiseHash h(10);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h.HashRange(x, 17), 17u);
  }
}

TEST(PairwiseHashTest, LinearStructure) {
  // h(x) = (a x + b) mod p exactly.
  PairwiseHash h(11);
  for (uint64_t x : {0ull, 1ull, 123456789ull}) {
    __uint128_t expect = static_cast<__uint128_t>(h.a()) * (x % kMersenne61);
    uint64_t r = Mod61(expect) + h.b();
    if (r >= kMersenne61) r -= kMersenne61;
    EXPECT_EQ(h.Hash(x), r);
  }
}

TEST(HashFamilyTest, SeedAndTagSelectFamily) {
  HashFamily a(1, 2), b(1, 2), c(1, 3), d(2, 2);
  EXPECT_EQ(a.HashU64(42), b.HashU64(42));
  EXPECT_NE(a.HashU64(42), c.HashU64(42));
  EXPECT_NE(a.HashU64(42), d.HashU64(42));
}

TEST(HashFamilyTest, IndexedHashesDiffer) {
  HashFamily f(5, 6);
  EXPECT_NE(f.HashU64Indexed(42, 0), f.HashU64Indexed(42, 1));
  EXPECT_NE(f.HashU64Indexed(42, 1), f.HashU64Indexed(42, 2));
}

TEST(HashFamilyTest, BytesHashMatchesLengths) {
  HashFamily f(7, 8);
  std::vector<uint8_t> a = {1, 2, 3};
  std::vector<uint8_t> b = {1, 2, 3, 0};  // Same prefix, longer.
  EXPECT_NE(f.HashBytes(a), f.HashBytes(b));
  EXPECT_EQ(f.HashBytes(a), f.HashBytes(a));
}

TEST(HashFamilyTest, BytesHashAvalancheOnSample) {
  HashFamily f(9, 10);
  std::set<uint64_t> outputs;
  std::vector<uint8_t> data(16, 0);
  for (size_t i = 0; i < 128; ++i) {
    data[i / 8] = static_cast<uint8_t>(1u << (i % 8));
    outputs.insert(f.HashBytes(data));
    data[i / 8] = 0;
  }
  EXPECT_EQ(outputs.size(), 128u);
}

TEST(HashFamilyTest, BytesPairEqualsTwoHashes) {
  // 516 = ChildBlobWidth(64), the direct child blob with a 4-byte tail;
  // 328 and 2728 are child-IBLT blobs at d = 1 and d = 64.
  const size_t kLengths[] = {0, 1, 7, 8, 9, 36, 328, 516, 2728};
  const std::pair<HashFamily, HashFamily> kPairs[] = {
      {HashFamily(21, 0x6275636b), HashFamily(21, 0x6368656b)},
      {HashFamily(22, 23), HashFamily(24, 25)},
      {HashFamily(26, 27), HashFamily(26, 27)},
  };
  Rng rng(28);
  std::vector<uint8_t> data(2728 + 1);
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.NextU64());
  for (const auto& [a, b] : kPairs) {
    for (size_t n : kLengths) {
      // Hash from an odd offset too, so lanes are read unaligned.
      for (size_t offset : {size_t{0}, size_t{1}}) {
        const uint8_t* p = data.data() + offset;
        const std::pair<uint64_t, uint64_t> want = {a.HashBytes(p, n),
                                                    b.HashBytes(p, n)};
        EXPECT_EQ(HashFamily::HashBytesPair(a, b, p, n), want)
            << "n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(SetFingerprintTest, OrderInvariant) {
  HashFamily f(11, 12);
  std::vector<uint64_t> a = {5, 9, 1};
  std::vector<uint64_t> b = {1, 5, 9};
  EXPECT_EQ(SetFingerprint(a, f), SetFingerprint(b, f));
}

TEST(SetFingerprintTest, MultiplicitySensitive) {
  HashFamily f(13, 14);
  std::vector<uint64_t> once = {5, 9};
  std::vector<uint64_t> twice = {5, 5, 9};
  EXPECT_NE(SetFingerprint(once, f), SetFingerprint(twice, f));
}

TEST(SetFingerprintTest, EmptyVsSingleton) {
  HashFamily f(15, 16);
  EXPECT_NE(SetFingerprint({}, f), SetFingerprint({0}, f));
}

TEST(SetFingerprintTest, SensitiveToElementChange) {
  HashFamily f(17, 18);
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2, 4};
  EXPECT_NE(SetFingerprint(a, f), SetFingerprint(b, f));
}

TEST(SetFingerprintTest, XorCancellationResistance) {
  // Sum-based fingerprints must distinguish {a,b} from {c,d} even when
  // a ^ b == c ^ d (the classic XOR-fingerprint weakness).
  HashFamily f(19, 20);
  std::vector<uint64_t> ab = {0x3, 0x5};  // xor = 6
  std::vector<uint64_t> cd = {0x2, 0x4};  // xor = 6
  EXPECT_NE(SetFingerprint(ab, f), SetFingerprint(cd, f));
}

}  // namespace
}  // namespace setrec
