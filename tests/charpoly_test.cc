#include "charpoly/charpoly_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "charpoly/gf.h"
#include "hashing/random.h"

namespace setrec {
namespace {

std::vector<uint64_t> RandomSet(Rng* rng, size_t size) {
  std::set<uint64_t> s;
  while (s.size() < size) s.insert(rng->NextU64() % (1ull << 55));
  return {s.begin(), s.end()};
}

TEST(CharPolyReconcilerTest, IdenticalSetsEmptyDiff) {
  Rng rng(1);
  std::vector<uint64_t> set = RandomSet(&rng, 50);
  CharPolyReconciler rec(4, 99);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(set);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff = rec.DecodeDifference(msg.value(), set);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff.value().remote_only.empty());
  EXPECT_TRUE(diff.value().local_only.empty());
}

TEST(CharPolyReconcilerTest, MessageSizeExact) {
  CharPolyReconciler rec(7, 1);
  std::vector<uint64_t> set = {1, 2, 3};
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(set);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().size(), rec.MessageSize());
  EXPECT_EQ(rec.MessageSize(), 8 + 8 * 7u);
}

TEST(CharPolyReconcilerTest, ElementOutOfRangeRejected) {
  CharPolyReconciler rec(4, 2);
  std::vector<uint64_t> bad = {1ull << 60};
  EXPECT_FALSE(rec.BuildMessage(bad).ok());
}

TEST(CharPolyReconcilerTest, OneSidedDifference) {
  Rng rng(2);
  std::vector<uint64_t> bob = RandomSet(&rng, 30);
  std::vector<uint64_t> alice = bob;
  alice.push_back(123456);
  alice.push_back(654321);
  std::sort(alice.begin(), alice.end());
  CharPolyReconciler rec(2, 7);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(alice);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff = rec.DecodeDifference(msg.value(), bob);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().remote_only,
            (std::vector<uint64_t>{123456, 654321}));
  EXPECT_TRUE(diff.value().local_only.empty());
}

TEST(CharPolyReconcilerTest, UnderestimatedBoundDetected) {
  // 6 actual differences, bound 2: must fail loudly, never silently.
  Rng rng(3);
  std::vector<uint64_t> bob = RandomSet(&rng, 40);
  std::vector<uint64_t> alice = bob;
  for (uint64_t i = 0; i < 6; ++i) alice.push_back(1000000 + i);
  std::sort(alice.begin(), alice.end());
  CharPolyReconciler rec(2, 8);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(alice);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff = rec.DecodeDifference(msg.value(), bob);
  EXPECT_FALSE(diff.ok());
}

TEST(CharPolyReconcilerTest, TruncatedMessageRejected) {
  CharPolyReconciler rec(4, 9);
  std::vector<uint8_t> junk = {1, 2, 3};
  Result<SetDifference> diff = rec.DecodeDifference(junk, {1, 2});
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.status().code(), StatusCode::kParseError);
}

TEST(CharPolyReconcilerTest, EmptySets) {
  CharPolyReconciler rec(3, 10);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage({});
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff = rec.DecodeDifference(msg.value(), {});
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.value().remote_only.empty());
}

TEST(CharPolyReconcilerTest, BobEmptyRecoversWholeSet) {
  std::vector<uint64_t> alice = {10, 20, 30};
  CharPolyReconciler rec(3, 11);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(alice);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff = rec.DecodeDifference(msg.value(), {});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().remote_only, alice);
}

// Decodes against `local` sorted and shuffled: the two must agree on the
// status and the difference.
Result<SetDifference> DecodeSortedAndShuffled(
    const CharPolyReconciler& rec, const std::vector<uint8_t>& message,
    std::vector<uint64_t> local, uint64_t seed) {
  std::sort(local.begin(), local.end());
  Result<SetDifference> sorted = rec.DecodeDifference(message, local);
  Rng rng(seed);
  for (size_t i = local.size(); i > 1; --i) {
    std::swap(local[i - 1], local[rng.UniformU64(i)]);
  }
  EXPECT_FALSE(std::is_sorted(local.begin(), local.end()));
  Result<SetDifference> shuffled = rec.DecodeDifference(message, local);
  EXPECT_EQ(shuffled.ok(), sorted.ok());
  EXPECT_EQ(shuffled.status().code(), sorted.status().code());
  EXPECT_EQ(shuffled.status().message(), sorted.status().message());
  if (sorted.ok() && shuffled.ok()) {
    EXPECT_EQ(shuffled.value().remote_only, sorted.value().remote_only);
    EXPECT_EQ(shuffled.value().local_only, sorted.value().local_only);
  }
  return sorted;
}

TEST(CharPolyReconcilerTest, UnsortedLocalSetDecodesAsSorted) {
  Rng rng(13);
  const std::vector<uint64_t> pool = RandomSet(&rng, 46);
  const std::vector<uint64_t> shared(pool.begin(), pool.begin() + 40);
  std::vector<uint64_t> alice = shared;
  alice.insert(alice.end(), pool.begin() + 40, pool.begin() + 43);
  std::vector<uint64_t> bob = shared;
  bob.insert(bob.end(), pool.begin() + 43, pool.end());
  std::sort(alice.begin(), alice.end());
  CharPolyReconciler rec(6, 14);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(alice);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff =
      DecodeSortedAndShuffled(rec, msg.value(), bob, 15);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff.value().remote_only,
            std::vector<uint64_t>(pool.begin() + 40, pool.begin() + 43));
  EXPECT_EQ(diff.value().local_only,
            std::vector<uint64_t>(pool.begin() + 43, pool.end()));
}

TEST(CharPolyReconcilerTest, UnsortedLocalSetFailsAsSorted) {
  Rng rng(16);
  const std::vector<uint64_t> bob = RandomSet(&rng, 30);
  CharPolyReconciler rec(3, 17);
  // A recovered remote-only element Bob already holds: Alice's message
  // counts one of his elements twice, so chi_A / chi_B = (z - e).
  std::vector<uint64_t> doubled = bob;
  doubled.push_back(bob[7]);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(doubled);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> implausible =
      DecodeSortedAndShuffled(rec, msg.value(), bob, 18);
  ASSERT_FALSE(implausible.ok());
  EXPECT_EQ(implausible.status().code(), StatusCode::kVerificationFailure);
  EXPECT_EQ(implausible.status().message(),
            "recovered remote-only element implausible");

  // A recovered local-only element Bob lacks: the message is chi_B / (z - y)
  // for a y outside his set, the quotient of two messages of one reconciler.
  const uint64_t y = 1ull << 56;
  Result<std::vector<uint8_t>> whole = rec.BuildMessage(bob);
  Result<std::vector<uint8_t>> single = rec.BuildMessage({y});
  ASSERT_TRUE(whole.ok() && single.ok());
  ByteReader whole_reader(whole.value());
  ByteReader single_reader(single.value());
  uint64_t size = 0, one = 0;
  ASSERT_TRUE(whole_reader.GetU64(&size) && single_reader.GetU64(&one));
  ByteWriter quotient;
  quotient.PutU64(size - one);
  for (size_t i = 0; i < rec.max_diff(); ++i) {
    uint64_t num = 0, den = 0;
    ASSERT_TRUE(whole_reader.GetU64(&num) && single_reader.GetU64(&den));
    quotient.PutU64(gf::Mul(num, gf::Inv(den)));
  }
  Result<SetDifference> not_local =
      DecodeSortedAndShuffled(rec, quotient.bytes(), bob, 19);
  ASSERT_FALSE(not_local.ok());
  EXPECT_EQ(not_local.status().code(), StatusCode::kVerificationFailure);
  EXPECT_EQ(not_local.status().message(),
            "recovered local-only element not local");
}

struct CpCase {
  size_t shared;
  size_t alice_only;
  size_t bob_only;
  size_t bound;  // >= alice_only + bob_only.
};

class CharPolySweep : public ::testing::TestWithParam<CpCase> {};

TEST_P(CharPolySweep, TwoSidedDifferences) {
  const CpCase c = GetParam();
  Rng rng(c.shared * 7 + c.alice_only * 3 + c.bob_only + c.bound);
  std::vector<uint64_t> pool =
      RandomSet(&rng, c.shared + c.alice_only + c.bob_only);
  const auto shared_end =
      pool.begin() + static_cast<std::ptrdiff_t>(c.shared);
  const auto alice_end =
      shared_end + static_cast<std::ptrdiff_t>(c.alice_only);
  std::vector<uint64_t> alice(pool.begin(), alice_end);
  std::vector<uint64_t> bob(pool.begin(), shared_end);
  bob.insert(bob.end(), alice_end, pool.end());
  std::sort(alice.begin(), alice.end());
  std::sort(bob.begin(), bob.end());

  CharPolyReconciler rec(c.bound, 12345);
  Result<std::vector<uint8_t>> msg = rec.BuildMessage(alice);
  ASSERT_TRUE(msg.ok());
  Result<SetDifference> diff = rec.DecodeDifference(msg.value(), bob);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff.value().remote_only.size(), c.alice_only);
  EXPECT_EQ(diff.value().local_only.size(), c.bob_only);
  // Applying the diff reproduces Alice's set.
  std::set<uint64_t> recovered(bob.begin(), bob.end());
  for (uint64_t e : diff.value().local_only) recovered.erase(e);
  for (uint64_t e : diff.value().remote_only) recovered.insert(e);
  EXPECT_EQ(std::vector<uint64_t>(recovered.begin(), recovered.end()), alice);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CharPolySweep,
    ::testing::Values(CpCase{10, 1, 0, 1}, CpCase{10, 0, 1, 1},
                      CpCase{10, 1, 1, 2}, CpCase{50, 3, 2, 5},
                      CpCase{100, 5, 5, 10}, CpCase{100, 5, 5, 16},
                      CpCase{20, 10, 0, 12}, CpCase{0, 4, 4, 8},
                      CpCase{200, 12, 9, 21}, CpCase{30, 0, 0, 4}));

}  // namespace
}  // namespace setrec
