#include "core/protocol.h"

#include <gtest/gtest.h>

#include "core/encoding.h"
#include "core/workload.h"
#include "hashing/random.h"
#include "setrec/multiset_codec.h"

namespace setrec {
namespace {

TEST(CanonicalizeTest, SortsChildrenAndParent) {
  SetOfSets sets = {{3, 1, 2}, {9}, {0, 5}};
  SetOfSets canon = Canonicalize(sets);
  EXPECT_EQ(canon,
            (SetOfSets{{0, 5}, {1, 2, 3}, {9}}));
}

TEST(CanonicalizeTest, DedupsElementsAndChildren) {
  SetOfSets sets = {{1, 1, 2}, {2, 1}, {2, 1, 1}};
  SetOfSets canon = Canonicalize(sets);
  EXPECT_EQ(canon, (SetOfSets{{1, 2}}));
}

TEST(ParentFingerprintTest, OrderInvariant) {
  HashFamily f(1, 2);
  SetOfSets a = {{1, 2}, {3, 4}};
  SetOfSets b = {{3, 4}, {1, 2}};
  EXPECT_EQ(ParentFingerprint(a, f), ParentFingerprint(b, f));
}

TEST(ParentFingerprintTest, SensitiveToOneElement) {
  HashFamily f(3, 4);
  SetOfSets a = {{1, 2}, {3, 4}};
  SetOfSets b = {{1, 2}, {3, 5}};
  EXPECT_NE(ParentFingerprint(a, f), ParentFingerprint(b, f));
}

TEST(TotalElementsTest, Sums) {
  EXPECT_EQ(TotalElements({{1, 2}, {}, {3, 4, 5}}), 5u);
}

TEST(ValidateSetOfSetsTest, AcceptsValid) {
  SsrParams params;
  params.max_child_size = 3;
  EXPECT_TRUE(ValidateSetOfSets({{1, 2, 3}, {7}}, params).ok());
}

TEST(ValidateSetOfSetsTest, RejectsOversizedChild) {
  SsrParams params;
  params.max_child_size = 2;
  EXPECT_FALSE(ValidateSetOfSets({{1, 2, 3}}, params).ok());
}

TEST(ValidateSetOfSetsTest, RejectsUnsortedChild) {
  SsrParams params;
  EXPECT_FALSE(ValidateSetOfSets({{3, 1}}, params).ok());
}

TEST(ValidateSetOfSetsTest, RejectsOutOfSpaceElement) {
  SsrParams params;
  EXPECT_FALSE(ValidateSetOfSets({{1ull << 60}}, params).ok());
}

TEST(ValidateSetOfSetsTest, AcceptsMarkers) {
  SsrParams params;
  EXPECT_TRUE(
      ValidateSetOfSets({{1, kDuplicateCountBase + 2}}, params).ok());
}

TEST(DHatTest, MinOfDAndS) {
  SsrParams params;
  params.max_children = 10;
  EXPECT_EQ(DHat(5, params), 5u);
  EXPECT_EQ(DHat(50, params), 10u);
  params.max_children = 0;
  EXPECT_EQ(DHat(50, params), 50u);
}

TEST(ChildBlobTest, RoundTrip) {
  ChildSet child = {1, 5, 900};
  std::vector<uint8_t> blob = EncodeChildBlob(child, 10);
  EXPECT_EQ(blob.size(), ChildBlobWidth(10));
  Result<ChildSet> decoded = DecodeChildBlob(blob, 10);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), child);
}

TEST(ChildBlobTest, EmptyChild) {
  std::vector<uint8_t> blob = EncodeChildBlob({}, 4);
  Result<ChildSet> decoded = DecodeChildBlob(blob, 4);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(ChildBlobTest, CorruptPaddingRejected) {
  std::vector<uint8_t> blob = EncodeChildBlob({1}, 4);
  blob.back() = 1;  // Nonzero padding.
  EXPECT_FALSE(DecodeChildBlob(blob, 4).ok());
}

TEST(ChildBlobTest, WrongWidthRejected) {
  std::vector<uint8_t> blob = EncodeChildBlob({1}, 4);
  EXPECT_FALSE(DecodeChildBlob(blob, 5).ok());
}

TEST(ChildIbltBlobTest, RoundTrip) {
  IbltConfig config = IbltConfig::ForDifference(4, 99);
  ChildSet child = {10, 20, 30};
  std::vector<uint8_t> blob = EncodeChildIbltBlob(child, config, 0xabcdef);
  EXPECT_EQ(blob.size(), ChildIbltBlobWidth(config));
  Result<ChildEncoding> enc = ParseChildIbltBlob(blob, config);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value().fingerprint, 0xabcdefu);
  Result<IbltDecodeResult64> decoded = enc.value().sketch.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().positive.size(), 3u);
}

TEST(ChildIbltBlobTest, PackedBlobsMatchPerChildEncoding) {
  // A full child, then an empty one (residue from an incomplete Clear would
  // show in the empty child's blob), a small one, and one of more than
  // Iblt::kSmallBatchMaxKeys elements (the heap-hash batch path).
  Rng rng(2024);
  auto random_child = [&rng](size_t n) {
    ChildSet child(n);
    for (uint64_t& x : child) x = rng.NextU64() >> 4;
    return child;
  };
  const SetOfSets children = {random_child(40), {}, random_child(3),
                              random_child(Iblt::kSmallBatchMaxKeys + 72)};
  ASSERT_GT(children.back().size(), Iblt::kSmallBatchMaxKeys);
  const std::vector<uint64_t> fps = {0x1111, 0x2222, 0x3333, 0x4444};

  for (const IbltConfig& config :
       {IbltConfig::ForDifference(4, 99), IbltConfig::ForDifference(50, 7)}) {
    std::vector<uint8_t> expected = {0xee};  // Packing appends.
    for (size_t i = 0; i < children.size(); ++i) {
      std::vector<uint8_t> blob =
          EncodeChildIbltBlob(children[i], config, fps[i]);
      expected.insert(expected.end(), blob.begin(), blob.end());
    }
    ByteWriter packed;
    packed.PutU8(0xee);
    AppendChildIbltBlobs(children, config, fps, &packed);
    EXPECT_EQ(packed.bytes(), expected) << "cells=" << config.cells;
  }
}

TEST(WorkloadTest, AppliesRequestedChanges) {
  SsrWorkloadSpec spec;
  spec.num_children = 20;
  spec.child_size = 16;
  spec.changes = 10;
  spec.seed = 3;
  SsrWorkload w = MakeSsrWorkload(spec);
  EXPECT_EQ(w.applied_changes, 10u);
  EXPECT_EQ(w.bob.size(), 20u);
  EXPECT_NE(w.alice, w.bob);
}

TEST(WorkloadTest, ZeroChangesIdentical) {
  SsrWorkloadSpec spec;
  spec.changes = 0;
  spec.seed = 4;
  SsrWorkload w = MakeSsrWorkload(spec);
  EXPECT_EQ(w.alice, w.bob);
}

TEST(WorkloadTest, TouchedChildrenRestrictsSpread) {
  SsrWorkloadSpec spec;
  spec.num_children = 30;
  spec.child_size = 20;
  spec.changes = 12;
  spec.touched_children = 2;
  spec.seed = 5;
  SsrWorkload w = MakeSsrWorkload(spec);
  size_t differing = 0;
  for (size_t i = 0; i < w.bob.size(); ++i) {
    bool found = false;
    for (const auto& child : w.alice) {
      if (child == w.bob[i]) {
        found = true;
        break;
      }
    }
    if (!found) ++differing;
  }
  EXPECT_LE(differing, 2u);
}

TEST(WorkloadTest, DeterministicPerSeed) {
  SsrWorkloadSpec spec;
  spec.seed = 6;
  SsrWorkload a = MakeSsrWorkload(spec);
  SsrWorkload b = MakeSsrWorkload(spec);
  EXPECT_EQ(a.alice, b.alice);
  EXPECT_EQ(a.bob, b.bob);
}

}  // namespace
}  // namespace setrec
