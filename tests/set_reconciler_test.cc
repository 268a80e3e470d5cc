#include "setrec/set_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "hashing/random.h"

namespace setrec {
namespace {

std::vector<uint64_t> RandomSet(Rng* rng, size_t size) {
  std::set<uint64_t> s;
  while (s.size() < size) s.insert(rng->NextU64() % (1ull << 55));
  return {s.begin(), s.end()};
}

struct Instance {
  std::vector<uint64_t> alice;
  std::vector<uint64_t> bob;
  size_t diff;
};

Instance MakeInstance(size_t shared, size_t alice_only, size_t bob_only,
                      uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> pool = RandomSet(&rng, shared + alice_only + bob_only);
  Instance inst;
  const auto shared_end = pool.begin() + static_cast<std::ptrdiff_t>(shared);
  const auto alice_end = shared_end + static_cast<std::ptrdiff_t>(alice_only);
  inst.alice.assign(pool.begin(), alice_end);
  inst.bob.assign(pool.begin(), shared_end);
  inst.bob.insert(inst.bob.end(), alice_end, pool.end());
  std::sort(inst.alice.begin(), inst.alice.end());
  std::sort(inst.bob.begin(), inst.bob.end());
  inst.diff = alice_only + bob_only;
  return inst;
}

TEST(ApplyDifferenceTest, AddsAndRemoves) {
  SetDifference diff;
  diff.remote_only = {10};
  diff.local_only = {2};
  EXPECT_EQ(ApplyDifference({1, 2, 3}, diff),
            (std::vector<uint64_t>{1, 3, 10}));
}

TEST(ApplyDifferenceTest, MultisetRemovesOneOccurrence) {
  SetDifference diff;
  diff.local_only = {5};
  EXPECT_EQ(ApplyDifference({5, 5, 7}, diff), (std::vector<uint64_t>{5, 7}));
}

// ApplyDifference as it was before it became one sorted merge: sort copies
// of the base and the removals, drop one occurrence per removal, append the
// additions, sort.
std::vector<uint64_t> ReferenceApplyDifference(std::vector<uint64_t> base,
                                               std::vector<uint64_t> added,
                                               std::vector<uint64_t> removed) {
  std::sort(base.begin(), base.end());
  std::sort(removed.begin(), removed.end());
  std::vector<uint64_t> out;
  size_t r = 0;
  for (uint64_t e : base) {
    if (r < removed.size() && removed[r] == e) {
      ++r;
      continue;
    }
    out.push_back(e);
  }
  out.insert(out.end(), added.begin(), added.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ApplyDifferenceTest, SortedAndUnsortedBasesAgree) {
  // Multiset bases (repeats from a small value range), removals of present,
  // repeated and absent values, additions that repeat base values; each
  // side of the difference in peel (unsorted) or sorted order. A sorted
  // base is merged where it is, its shuffled copy from a sorted copy.
  Rng rng(77);
  size_t unsorted_bases = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const uint64_t range = 2 + rng.NextU64() % 40;
    std::vector<uint64_t> base(rng.NextU64() % 30);
    for (uint64_t& e : base) e = rng.NextU64() % range;
    std::vector<uint64_t> removed(rng.NextU64() % 8);
    for (uint64_t& e : removed) {
      e = (rng.NextU64() % 3 != 0 && !base.empty())
              ? base[rng.NextU64() % base.size()]
              : rng.NextU64() % (2 * range);
    }
    std::vector<uint64_t> added(rng.NextU64() % 8);
    for (uint64_t& e : added) e = rng.NextU64() % (2 * range);
    if (trial % 2 == 0) {
      std::sort(removed.begin(), removed.end());
      std::sort(added.begin(), added.end());
    }
    const std::vector<uint64_t> expected =
        ReferenceApplyDifference(base, added, removed);

    std::vector<uint64_t> sorted_base = base;
    std::sort(sorted_base.begin(), sorted_base.end());
    std::vector<uint64_t> shuffled = base;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextU64() % i]);
    }
    unsorted_bases += !std::is_sorted(shuffled.begin(), shuffled.end());
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(ApplyDifference(sorted_base, added, removed), expected);
    EXPECT_EQ(ApplyDifference(shuffled, added, removed), expected);
  }
  EXPECT_GT(unsorted_bases, 300u);
}

TEST(IbltReconcileKnownTest, RecoversAliceExactly) {
  Instance inst = MakeInstance(500, 3, 2, 1);
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 11;
  Result<SetReconcileOutcome> out =
      IbltReconcileKnown(inst.alice, inst.bob, inst.diff, opt, &ch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().recovered, inst.alice);
  EXPECT_EQ(out.value().diff.remote_only.size(), 3u);
  EXPECT_EQ(out.value().diff.local_only.size(), 2u);
  EXPECT_EQ(ch.rounds(), 1u);  // Corollary 2.2: one round.
}

TEST(IbltReconcileKnownTest, CommunicationScalesWithDNotN) {
  SetReconcilerOptions opt;
  opt.seed = 12;
  Instance small_n = MakeInstance(100, 2, 2, 2);
  Instance large_n = MakeInstance(10000, 2, 2, 3);
  Channel ch_small, ch_large;
  ASSERT_TRUE(IbltReconcileKnown(small_n.alice, small_n.bob, 4, opt, &ch_small)
                  .ok());
  ASSERT_TRUE(IbltReconcileKnown(large_n.alice, large_n.bob, 4, opt, &ch_large)
                  .ok());
  // 100x the set size must not change the message size materially
  // (varint counts grow slightly).
  EXPECT_LT(ch_large.total_bytes(), 2 * ch_small.total_bytes());
}

TEST(IbltReconcileKnownTest, IdenticalSets) {
  Instance inst = MakeInstance(300, 0, 0, 4);
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 13;
  Result<SetReconcileOutcome> out =
      IbltReconcileKnown(inst.alice, inst.bob, 2, opt, &ch);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().recovered, inst.alice);
}

TEST(IbltReconcileKnownTest, GrosslyUnderestimatedDFailsDetectably) {
  Instance inst = MakeInstance(100, 40, 40, 5);
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 14;
  opt.max_attempts = 2;
  Result<SetReconcileOutcome> out =
      IbltReconcileKnown(inst.alice, inst.bob, 2, opt, &ch);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kExhausted);
}

TEST(IbltReconcileUnknownTest, TwoRoundsAndRecovery) {
  Instance inst = MakeInstance(2000, 6, 5, 6);
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 15;
  Result<SetReconcileOutcome> out =
      IbltReconcileUnknown(inst.alice, inst.bob, opt, &ch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().recovered, inst.alice);
  EXPECT_GE(ch.rounds(), 2u);  // Corollary 3.2.
}

TEST(IbltReconcileUnknownTest, LargeDifference) {
  Instance inst = MakeInstance(1000, 300, 200, 7);
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 16;
  Result<SetReconcileOutcome> out =
      IbltReconcileUnknown(inst.alice, inst.bob, opt, &ch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().recovered, inst.alice);
}

TEST(CharPolyReconcileTest, OneRoundExactCommunication) {
  Instance inst = MakeInstance(200, 2, 3, 8);
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 17;
  Result<SetReconcileOutcome> out =
      CharPolyReconcile(inst.alice, inst.bob, 5, opt, &ch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().recovered, inst.alice);
  EXPECT_EQ(ch.rounds(), 1u);
  EXPECT_EQ(ch.total_bytes(), 8 + 8 * 5u);  // Theorem 2.3: d words + size.
}

TEST(MultisetReconcileTest, RepeatsPreserved) {
  std::vector<uint64_t> bob = {1, 1, 1, 2, 5, 5};
  std::vector<uint64_t> alice = {1, 1, 2, 2, 5, 5, 9};
  Channel ch;
  SetReconcilerOptions opt;
  opt.seed = 18;
  Result<SetReconcileOutcome> out =
      MultisetReconcileKnown(alice, bob, 6, opt, &ch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().recovered, alice);
}

class SetReconcileSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SetReconcileSweep, IbltAndCharPolyAgree) {
  auto [shared, half_diff] = GetParam();
  Instance inst = MakeInstance(shared, half_diff, half_diff,
                               shared * 31 + half_diff);
  SetReconcilerOptions opt;
  opt.seed = shared + half_diff;
  Channel ch1, ch2;
  Result<SetReconcileOutcome> iblt =
      IbltReconcileKnown(inst.alice, inst.bob, inst.diff, opt, &ch1);
  Result<SetReconcileOutcome> poly =
      CharPolyReconcile(inst.alice, inst.bob, inst.diff, opt, &ch2);
  ASSERT_TRUE(iblt.ok()) << iblt.status().ToString();
  ASSERT_TRUE(poly.ok()) << poly.status().ToString();
  EXPECT_EQ(iblt.value().recovered, inst.alice);
  EXPECT_EQ(poly.value().recovered, inst.alice);
  EXPECT_EQ(iblt.value().diff.remote_only, poly.value().diff.remote_only);
  EXPECT_EQ(iblt.value().diff.local_only, poly.value().diff.local_only);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SetReconcileSweep,
    ::testing::Combine(::testing::Values(50, 500, 2000),
                       ::testing::Values(1, 4, 12, 30)));

}  // namespace
}  // namespace setrec
