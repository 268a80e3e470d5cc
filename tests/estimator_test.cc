#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "estimator/l0_estimator.h"
#include "estimator/strata_estimator.h"
#include "hashing/random.h"
#include "util/serialization.h"

namespace setrec {
namespace {

// Builds two estimators (Alice side 1, Bob side 2) over sets with `shared`
// common elements and `diff` one-sided extras, merges, and returns the
// estimate. Template works for both estimator types.
template <typename Estimator>
uint64_t EstimateDifference(const typename Estimator::Params& params,
                            size_t shared, size_t diff, uint64_t seed) {
  Rng rng(seed);
  Estimator alice(params), bob(params);
  std::set<uint64_t> used;
  for (size_t i = 0; i < shared; ++i) {
    uint64_t e = rng.NextU64();
    alice.Update(e, 1);
    bob.Update(e, 2);
  }
  for (size_t i = 0; i < diff; ++i) {
    uint64_t e = rng.NextU64();
    if (i % 2 == 0) {
      alice.Update(e, 1);
    } else {
      bob.Update(e, 2);
    }
  }
  EXPECT_TRUE(alice.Merge(bob).ok());
  return alice.Estimate();
}

// UpdateBatch must be exactly equivalent to n single-element Updates, for
// both estimator types and both sides (compared via serialized bytes).
template <typename Estimator>
void ExpectBatchMatchesPerElement(const typename Estimator::Params& params) {
  for (int side : {1, 2}) {
    for (size_t n : {0ul, 1ul, 7ul, 500ul}) {
      Rng rng(n * 3 + static_cast<size_t>(side));
      std::vector<uint64_t> elements(n);
      for (auto& e : elements) e = rng.NextU64();

      Estimator per_element(params), batched(params);
      for (uint64_t e : elements) per_element.Update(e, side);
      batched.UpdateBatch(elements.data(), elements.size(), side);

      ByteWriter a, b;
      per_element.Serialize(&a);
      batched.Serialize(&b);
      EXPECT_EQ(a.bytes(), b.bytes()) << "side=" << side << " n=" << n;
    }
  }
}

TEST(L0EstimatorTest, ZeroDifferenceIsZero) {
  L0Estimator::Params params;
  params.seed = 1;
  EXPECT_EQ(EstimateDifference<L0Estimator>(params, 5000, 0, 11), 0u);
}

TEST(L0EstimatorTest, SmallDifferencesNearExact) {
  L0Estimator::Params params;
  params.seed = 2;
  for (size_t d : {1u, 2u, 3u, 5u, 8u}) {
    uint64_t est = EstimateDifference<L0Estimator>(params, 2000, d, 100 + d);
    EXPECT_GE(est, d / 2) << d;
    EXPECT_LE(est, 2 * d + 2) << d;
  }
}

TEST(L0EstimatorTest, SerializationRoundTrip) {
  L0Estimator::Params params;
  params.seed = 3;
  L0Estimator est(params);
  for (uint64_t i = 0; i < 100; ++i) est.Update(i, 1);
  ByteWriter writer;
  est.Serialize(&writer);
  EXPECT_EQ(writer.size(), est.SerializedSize());
  ByteReader reader(writer.bytes());
  Result<L0Estimator> restored = L0Estimator::Deserialize(&reader, params);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Estimate(), est.Estimate());
}

TEST(L0EstimatorTest, MergeMismatchedParamsRejected) {
  L0Estimator::Params a, b;
  a.seed = 1;
  b.seed = 2;
  L0Estimator ea(a), eb(b);
  EXPECT_FALSE(ea.Merge(eb).ok());
}

TEST(L0EstimatorTest, UpdateCancelsAcrossSides) {
  // x on side 1 and x on side 2 contribute +1 and -1 to the same bucket.
  L0Estimator::Params params;
  params.seed = 4;
  L0Estimator est(params);
  for (uint64_t i = 0; i < 500; ++i) {
    est.Update(i, 1);
    est.Update(i, 2);
  }
  EXPECT_EQ(est.Estimate(), 0u);
}

TEST(L0EstimatorTest, MergeIsWordParallelEquivalent) {
  // Merging split streams equals one combined stream.
  L0Estimator::Params params;
  params.seed = 5;
  L0Estimator combined(params), part1(params), part2(params);
  Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    uint64_t e = rng.NextU64();
    int side = 1 + (i % 2);
    combined.Update(e, side);
    (i < 150 ? part1 : part2).Update(e, side);
  }
  ASSERT_TRUE(part1.Merge(part2).ok());
  EXPECT_EQ(part1.Estimate(), combined.Estimate());
}

class L0AccuracySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(L0AccuracySweep, WithinConstantFactor) {
  const size_t d = GetParam();
  L0Estimator::Params params;
  params.seed = 6;
  // Median over trials keeps the test deterministic-stable.
  std::vector<uint64_t> estimates;
  for (uint64_t trial = 0; trial < 5; ++trial) {
    estimates.push_back(
        EstimateDifference<L0Estimator>(params, 3000, d, 7000 + trial));
  }
  std::sort(estimates.begin(), estimates.end());
  uint64_t med = estimates[2];
  // Theorem 3.1 promises a constant factor; we assert a factor of 4.
  EXPECT_GE(med, d / 4) << d;
  EXPECT_LE(med, d * 4) << d;
}

INSTANTIATE_TEST_SUITE_P(Diffs, L0AccuracySweep,
                         ::testing::Values(4, 16, 64, 256, 1024, 4096));

TEST(L0EstimatorTest, UpdateBatchMatchesPerElementUpdates) {
  L0Estimator::Params params;
  params.seed = 21;
  ExpectBatchMatchesPerElement<L0Estimator>(params);
}

// --- Bit-identity of the estimate, the pair estimate and the update ---

// Reference forms of the estimator's update and estimate, which it must
// match bit for bit: every level above the threshold corrected with log1p
// and pow and the deepest one's value kept, and the bucket taken with a
// plain `%`.
constexpr size_t kRefFieldsPerWord = 21;
constexpr uint64_t kRefFieldMask = 0x36db6db6db6db6dbull;  // Low 2 of 3 bits.

size_t RefWordsPerLevel(const L0Estimator::Params& params) {
  return (params.buckets_per_level + kRefFieldsPerWord - 1) /
         kRefFieldsPerWord;
}

std::vector<uint64_t> WordsOf(const L0Estimator& est) {
  ByteWriter writer;
  est.Serialize(&writer);
  ByteReader reader(writer.bytes());
  std::vector<uint64_t> words(est.SerializedSize() / 8);
  for (uint64_t& w : words) EXPECT_TRUE(reader.GetU64(&w));
  return words;
}

L0Estimator FromWords(const std::vector<uint64_t>& words,
                      const L0Estimator::Params& params) {
  ByteWriter writer;
  for (uint64_t w : words) writer.PutU64(w);
  ByteReader reader(writer.bytes());
  Result<L0Estimator> est = L0Estimator::Deserialize(&reader, params);
  EXPECT_TRUE(est.ok());
  return std::move(est).value();
}

std::vector<uint64_t> RefMerge(std::vector<uint64_t> a,
                               const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] = (a[i] + b[i]) & kRefFieldMask;
  return a;
}

// The replica's estimate, and how many of its levels passed the threshold.
uint64_t RefEstimateReplica(const std::vector<uint64_t>& words,
                            const L0Estimator::Params& params, int replica,
                            int* active_levels) {
  const size_t wpl = RefWordsPerLevel(params);
  uint64_t total_nonzero = 0;
  double best = -1.0;
  const double buckets = static_cast<double>(params.buckets_per_level);
  for (int level = 0; level < params.num_levels; ++level) {
    const size_t offset = (static_cast<size_t>(replica) *
                               static_cast<size_t>(params.num_levels) +
                           static_cast<size_t>(level)) *
                          wpl;
    uint64_t nonzero = 0;
    for (size_t w = 0; w < wpl; ++w) {
      uint64_t word = words[offset + w];
      uint64_t any = (word | (word >> 1)) & 0x2492492492492492ull >> 1;
      nonzero += static_cast<uint64_t>(std::popcount(any));
    }
    total_nonzero += nonzero;
    if (nonzero > 8) {
      ++*active_levels;
      double c = static_cast<double>(nonzero);
      if (c >= buckets) c = buckets - 1;
      double corrected = -buckets * std::log1p(-c / buckets);
      best = corrected * std::pow(2.0, level + 1);
    }
  }
  if (best >= 0.0) return static_cast<uint64_t>(std::llround(best));
  return total_nonzero;
}

// The median estimate; `active[n]` counts replicas with n active levels
// (the last entry counts every n past it).
uint64_t RefEstimate(const std::vector<uint64_t>& words,
                     const L0Estimator::Params& params,
                     std::vector<size_t>* active) {
  std::vector<uint64_t> estimates;
  for (int r = 0; r < params.replicas; ++r) {
    int levels = 0;
    estimates.push_back(RefEstimateReplica(words, params, r, &levels));
    ++(*active)[std::min<size_t>(static_cast<size_t>(levels),
                                 active->size() - 1)];
  }
  const auto mid = static_cast<std::ptrdiff_t>(estimates.size() / 2);
  std::nth_element(estimates.begin(), estimates.begin() + mid,
                   estimates.end());
  return estimates[static_cast<size_t>(mid)];
}

std::vector<uint64_t> RefUpdateBatch(const L0Estimator::Params& params,
                                     const std::vector<uint64_t>& xs,
                                     int side) {
  const size_t wpl = RefWordsPerLevel(params);
  std::vector<uint64_t> words(static_cast<size_t>(params.replicas) *
                                  static_cast<size_t>(params.num_levels) * wpl,
                              0);
  const uint64_t add = side == 1 ? 1 : 3;
  for (int r = 0; r < params.replicas; ++r) {
    const uint64_t seed = DeriveSeed(
        params.seed, uint64_t{0x6c306573} + static_cast<uint64_t>(r));
    for (uint64_t x : xs) {
      uint64_t h = Mix64(x ^ seed);
      int level = std::countr_zero(h | (1ull << (params.num_levels - 1)));
      uint64_t bucket =
          Mix64(x ^ (seed + 0x9e3779b97f4a7c15ull)) % params.buckets_per_level;
      size_t word = (static_cast<size_t>(r) *
                         static_cast<size_t>(params.num_levels) +
                     static_cast<size_t>(level)) *
                        wpl +
                    bucket / kRefFieldsPerWord;
      words[word] += add << (3 * (bucket % kRefFieldsPerWord));
      words[word] &= kRefFieldMask;
    }
  }
  return words;
}

// Multiround's child estimators, and the defaults (naive, shingles, the set
// reconciler and multiround's round zero).
std::vector<L0Estimator::Params> IdentityParams() {
  L0Estimator::Params child;
  child.buckets_per_level = 21;
  child.num_levels = 12;
  child.replicas = 5;
  child.seed = 0x63686573ull;
  L0Estimator::Params defaults;
  defaults.seed = 0x6465666cull;
  return {child, defaults};
}

TEST(L0EstimatorTest, EstimatesMatchReferenceBitForBit) {
  for (const L0Estimator::Params& params : IdentityParams()) {
    SCOPED_TRACE("buckets=" + std::to_string(params.buckets_per_level));
    const L0Estimator::Corrections corrections(params);
    // Replicas with 0, 1 and several levels past the threshold.
    std::vector<size_t> active(3, 0);
    Rng rng(params.buckets_per_level);
    for (int trial = 0; trial < 400; ++trial) {
      // Set sizes spread over 0-4,096 on a log scale, so small differences
      // (no level active) and large ones (several) both show.
      const auto log_size = [&rng] {
        const uint64_t bits = rng.UniformU64(13);
        return static_cast<size_t>(rng.UniformU64((uint64_t{1} << bits) + 1));
      };
      const size_t shared = log_size() / 2;
      const size_t alice_only = std::min(log_size(), 4096 - shared);
      const size_t bob_only = std::min(log_size(), 4096 - shared);
      std::vector<uint64_t> alice_set, bob_set;
      for (size_t i = 0; i < shared; ++i) {
        const uint64_t e = rng.NextU64();
        alice_set.push_back(e);
        bob_set.push_back(e);
      }
      for (size_t i = 0; i < alice_only; ++i) {
        alice_set.push_back(rng.NextU64());
      }
      for (size_t i = 0; i < bob_only; ++i) bob_set.push_back(rng.NextU64());
      L0Estimator alice(params), bob(params);
      alice.UpdateBatch(alice_set.data(), alice_set.size(), 1);
      bob.UpdateBatch(bob_set.data(), bob_set.size(), 2);

      const std::vector<uint64_t> alice_words = WordsOf(alice);
      const std::vector<uint64_t> bob_words = WordsOf(bob);
      EXPECT_EQ(alice.Estimate(), RefEstimate(alice_words, params, &active));
      EXPECT_EQ(bob.Estimate(), RefEstimate(bob_words, params, &active));
      const uint64_t expected =
          RefEstimate(RefMerge(alice_words, bob_words), params, &active);
      L0Estimator merged = alice;
      ASSERT_TRUE(merged.Merge(bob).ok());
      EXPECT_EQ(merged.Estimate(), expected) << "trial " << trial;
      for (const auto& [mine, theirs] :
           {std::pair{&alice, &bob}, std::pair{&bob, &alice}}) {
        Result<uint64_t> pair = mine->PairEstimate(*theirs, corrections);
        ASSERT_TRUE(pair.ok());
        EXPECT_EQ(pair.value(), expected) << "trial " << trial;
      }
    }
    // Peer estimators arrive off the wire as raw words: padding bits set,
    // and fields past the last bucket, so a level may count more than B.
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint64_t> a_words(WordsOf(L0Estimator(params)).size());
      std::vector<uint64_t> b_words(a_words.size());
      for (uint64_t& w : a_words) w = rng.NextU64() >> rng.UniformU64(64);
      for (uint64_t& w : b_words) w = rng.NextU64() >> rng.UniformU64(64);
      const L0Estimator a = FromWords(a_words, params);
      const L0Estimator b = FromWords(b_words, params);
      EXPECT_EQ(a.Estimate(), RefEstimate(a_words, params, &active));
      Result<uint64_t> pair = a.PairEstimate(b, corrections);
      ASSERT_TRUE(pair.ok());
      EXPECT_EQ(pair.value(),
                RefEstimate(RefMerge(a_words, b_words), params, &active));
    }
    EXPECT_GT(active[0], 0u) << "no replica without an active level";
    EXPECT_GT(active[1], 0u) << "no replica with exactly one active level";
    EXPECT_GT(active[2], 0u) << "no replica with several active levels";
  }
}

TEST(L0EstimatorTest, PairEstimateRejectsMismatchedParams) {
  L0Estimator::Params base = IdentityParams()[0];
  std::vector<L0Estimator::Params> others(4, base);
  others[0].buckets_per_level += 1;
  others[1].num_levels += 1;
  others[2].replicas += 2;
  others[3].seed += 1;
  const L0Estimator mine(base);
  const L0Estimator::Corrections corrections(base);
  for (const L0Estimator::Params& other_params : others) {
    const L0Estimator other(other_params);
    L0Estimator merged = mine;
    EXPECT_FALSE(merged.Merge(other).ok());
    Result<uint64_t> pair = mine.PairEstimate(other, corrections);
    ASSERT_FALSE(pair.ok());
    EXPECT_EQ(pair.status().code(), StatusCode::kInvalidArgument);
  }
  // Corrections built for other params are rejected too.
  Result<uint64_t> pair =
      mine.PairEstimate(mine, L0Estimator::Corrections(others[0]));
  ASSERT_FALSE(pair.ok());
  EXPECT_EQ(pair.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(mine.PairEstimate(mine, corrections).ok());
}

TEST(L0EstimatorTest, UpdateBatchMatchesModuloBuckets) {
  // The bucket index by reciprocal equals the plain `%` at every width.
  Rng rng(77);
  std::vector<uint64_t> xs(600);
  for (uint64_t& x : xs) x = rng.NextU64();
  for (size_t buckets = 1; buckets <= 64; ++buckets) {
    L0Estimator::Params params;
    params.buckets_per_level = buckets;
    params.num_levels = 12;
    params.replicas = 3;
    params.seed = 1000 + buckets;
    for (int side : {1, 2}) {
      L0Estimator est(params);
      est.UpdateBatch(xs.data(), xs.size(), side);
      EXPECT_EQ(WordsOf(est), RefUpdateBatch(params, xs, side))
          << "buckets=" << buckets << " side=" << side;
    }
  }
}

TEST(StrataEstimatorTest, UpdateBatchMatchesPerElementUpdates) {
  StrataEstimator::Params params;
  params.seed = 22;
  ExpectBatchMatchesPerElement<StrataEstimator>(params);
}

TEST(StrataEstimatorTest, ZeroDifferenceIsZero) {
  StrataEstimator::Params params;
  params.seed = 7;
  EXPECT_EQ(EstimateDifference<StrataEstimator>(params, 3000, 0, 21), 0u);
}

TEST(StrataEstimatorTest, SmallDifferencesNearExact) {
  StrataEstimator::Params params;
  params.seed = 8;
  for (size_t d : {1u, 3u, 7u}) {
    uint64_t est =
        EstimateDifference<StrataEstimator>(params, 2000, d, 200 + d);
    EXPECT_GE(est, d / 2) << d;
    EXPECT_LE(est, 2 * d + 2) << d;
  }
}

TEST(StrataEstimatorTest, SerializationRoundTrip) {
  StrataEstimator::Params params;
  params.seed = 9;
  StrataEstimator est(params);
  for (uint64_t i = 0; i < 64; ++i) est.Update(i * 3, 1);
  ByteWriter writer;
  est.Serialize(&writer);
  EXPECT_EQ(writer.size(), est.SerializedSize());
  ByteReader reader(writer.bytes());
  Result<StrataEstimator> restored =
      StrataEstimator::Deserialize(&reader, params);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Estimate(), est.Estimate());
}

class StrataAccuracySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(StrataAccuracySweep, WithinConstantFactor) {
  const size_t d = GetParam();
  StrataEstimator::Params params;
  params.seed = 10;
  std::vector<uint64_t> estimates;
  for (uint64_t trial = 0; trial < 5; ++trial) {
    estimates.push_back(
        EstimateDifference<StrataEstimator>(params, 2000, d, 9000 + trial));
  }
  std::sort(estimates.begin(), estimates.end());
  uint64_t med = estimates[2];
  EXPECT_GE(med, d / 4) << d;
  EXPECT_LE(med, d * 4) << d;
}

INSTANTIATE_TEST_SUITE_P(Diffs, StrataAccuracySweep,
                         ::testing::Values(4, 16, 64, 256, 1024));

TEST(EstimatorComparisonTest, L0IsSmallerThanStrata) {
  // The Theorem 3.1 claim vs [14]: the l0 sketch drops the O(log u) key
  // factor. With default parameters the message should be much smaller.
  L0Estimator::Params l0_params;
  StrataEstimator::Params strata_params;
  L0Estimator l0(l0_params);
  StrataEstimator strata(strata_params);
  EXPECT_LT(l0.SerializedSize(), strata.SerializedSize() / 2);
}

}  // namespace
}  // namespace setrec
