#include "core/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <set>
#include <string>

#include "core/encoding.h"
#include "core/workload.h"
#include "hashing/random.h"
#include "setrec/multiset_codec.h"
#include "setrec/set_reconciler.h"
#include "tests/sketch_form.h"

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

TEST(ValidateSetOfSetsTest, RejectsRepeatedChild) {
  SsrParams params;
  // Adjacent in a sorted parent, apart in an unsorted one, and empty.
  for (const SetOfSets& sets :
       {SetOfSets{{1, 2}, {1, 2}, {3}}, SetOfSets{{3}, {1, 2}, {3}},
        SetOfSets{{}, {4}, {}}}) {
    Status status = ValidateSetOfSets(sets, params);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Order alone is not a repeat.
  EXPECT_TRUE(ValidateSetOfSets({{3}, {1, 2}, {}}, params).ok());
}

/// Packs one width-byte blob per fingerprint, each a fill byte then the
/// fingerprint's 8 little-endian bytes (the tail FindBlob reads).
std::vector<uint8_t> PackTailedBlobs(const std::vector<uint64_t>& fps,
                                     const std::vector<uint8_t>& fills,
                                     size_t width) {
  ByteWriter packed;
  for (size_t i = 0; i < fps.size(); ++i) {
    uint8_t* blob = packed.Extend(width - 8);
    std::fill(blob, blob + width - 8, fills[i]);
    packed.PutU64(fps[i]);
  }
  return packed.Take();
}

TEST(ChildFingerprintIndexTest, FindsByFingerprint) {
  const std::vector<uint64_t> fps = {30, 10, 20, 10};
  ChildFingerprintIndex index(fps);
  EXPECT_TRUE(index.HasDuplicate());
  EXPECT_EQ(index.Find(10), std::optional<size_t>(1));  // Lowest index.
  EXPECT_EQ(index.Find(30), std::optional<size_t>(0));
  EXPECT_EQ(index.Find(15), std::nullopt);
  EXPECT_FALSE(ChildFingerprintIndex(std::vector<uint64_t>{3, 1, 2})
                   .HasDuplicate());
  EXPECT_FALSE(ChildFingerprintIndex(std::vector<uint64_t>{}).HasDuplicate());
}

TEST(ChildFingerprintIndexTest, BlobMatchNeedsEveryByte) {
  // Children 1 and 3 share a fingerprint but not their bodies.
  const size_t width = 12;
  const std::vector<uint64_t> fps = {7, 9, 8, 9};
  const std::vector<uint8_t> packed =
      PackTailedBlobs(fps, {0xa0, 0xa1, 0xa2, 0xa3}, width);
  ChildFingerprintIndex index(fps);
  auto blob_of = [&](size_t i) {
    return IbltKeyView{packed.data() + i * width, width};
  };
  for (size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(index.FindBlob(blob_of(i), packed.data()),
              std::optional<size_t>(i));
  }
  // Known fingerprint, unknown body: no child.
  const std::vector<uint8_t> stranger = PackTailedBlobs({9}, {0xff}, width);
  EXPECT_EQ(index.FindBlob(IbltKeyView{stranger.data(), width}, packed.data()),
            std::nullopt);
  // Unknown fingerprint.
  const std::vector<uint8_t> unknown = PackTailedBlobs({5}, {0xa0}, width);
  EXPECT_EQ(index.FindBlob(IbltKeyView{unknown.data(), width}, packed.data()),
            std::nullopt);
}

TEST(MarkDecodedNegativesTest, DropsEachMatchedChild) {
  const size_t width = 4;
  // Bob's blobs: A, B, C, E.
  const std::vector<uint8_t> packed = {1, 1, 1, 1, 2, 2, 2, 2,
                                       3, 3, 3, 3, 5, 5, 5, 5};
  // Negatives, out of order: D (no child), C, A, and A again.
  const std::vector<uint8_t> neg = {4, 4, 4, 4, 3, 3, 3, 3, 1, 1, 1, 1};
  const std::vector<IbltKeyView> negatives = {{neg.data(), width},
                                              {neg.data() + 4, width},
                                              {neg.data() + 8, width},
                                              {neg.data() + 8, width}};
  std::vector<bool> drop(4, false);
  MarkDecodedNegatives(negatives, packed.data(), width, 4, &drop);
  EXPECT_EQ(drop, (std::vector<bool>{true, false, true, false}));
  std::vector<bool> none(4, false);
  MarkDecodedNegatives({}, packed.data(), width, 4, &none);
  EXPECT_EQ(none, std::vector<bool>(4, false));
}

// AssembleParent must equal the tail it replaced: Canonicalize over the
// kept and recovered children, and ParentFingerprint over the result.
void ExpectAssemblesLikeCanonicalize(const SetOfSets& bob,
                                     const std::vector<bool>& drop,
                                     const SetOfSets& recovered,
                                     const HashFamily& family,
                                     const std::string& what) {
  SetOfSets all;
  std::vector<uint64_t> bob_fps(bob.size());
  for (size_t i = 0; i < bob.size(); ++i) {
    bob_fps[i] = ChildFingerprint(bob[i], family);
    if (!drop[i]) all.push_back(bob[i]);
  }
  // The protocols verify a recovered child's fingerprint over its elements
  // as received, canonical or not.
  std::vector<RecoveredChild> received;
  for (const ChildSet& child : recovered) {
    received.push_back({child, ChildFingerprint(child, family)});
    all.push_back(child);
  }
  const SetOfSets want = Canonicalize(all);
  AssembledParent got =
      AssembleParent(bob, bob_fps, drop, std::move(received), family);
  EXPECT_EQ(got.parent, want) << what;
  EXPECT_EQ(got.fingerprint, ParentFingerprint(want, family)) << what;
}

TEST(AssembleParentTest, EdgeCases) {
  HashFamily family(41, 42);
  const SetOfSets bob = {{}, {1, 2}, {3}, {5, 9}};
  const std::vector<bool> keep_all(bob.size(), false);
  const std::vector<bool> drop_all(bob.size(), true);
  const std::vector<bool> drop_some = {false, true, false, true};
  SetOfSets reversed(bob.rbegin(), bob.rend());
  const std::vector<bool> drop_some_reversed = {true, false, true, false};

  ExpectAssemblesLikeCanonicalize(bob, keep_all, {}, family, "no recovered");
  ExpectAssemblesLikeCanonicalize(bob, drop_all, {{4}, {0}}, family,
                                  "no kept");
  ExpectAssemblesLikeCanonicalize({}, {}, {}, family, "nothing");
  ExpectAssemblesLikeCanonicalize(bob, drop_some, {{0, 1}, {2}, {6}}, family,
                                  "before, between and after");
  ExpectAssemblesLikeCanonicalize(bob, drop_some, {{3}, {}}, family,
                                  "equal to kept children");
  ExpectAssemblesLikeCanonicalize(bob, drop_some, {{4, 4}, {8, 7}, {2, 1, 2}},
                                  family, "repeated / out-of-order elements");
  ExpectAssemblesLikeCanonicalize(bob, drop_some, {{3, 3}, {7}, {7}}, family,
                                  "non-strict equal to kept; repeated");
  ExpectAssemblesLikeCanonicalize(reversed, drop_some_reversed,
                                  {{0, 1}, {3}, {}}, family,
                                  "Bob's parent reversed");
  ExpectAssemblesLikeCanonicalize(reversed, drop_all, {{9}}, family,
                                  "reversed, no kept");
}

TEST(AssembleParentTest, RandomAgainstCanonicalize) {
  // Tiny element and size ranges so equal children, empty children and
  // non-strict recovered children all come up often.
  Rng rng(0x61737365ull);
  HashFamily family(43, 44);
  auto random_child = [&rng](bool canonical) {
    ChildSet child(rng.UniformU64(4));
    for (uint64_t& x : child) x = rng.UniformU64(6);
    if (canonical) {
      std::sort(child.begin(), child.end());
      child.erase(std::unique(child.begin(), child.end()), child.end());
    }
    return child;
  };
  for (int trial = 0; trial < 3000; ++trial) {
    SetOfSets bob(rng.UniformU64(8));
    for (ChildSet& child : bob) child = random_child(true);
    bob = Canonicalize(std::move(bob));  // Valid: no repeated child.
    if (rng.Bernoulli(0.5)) {
      for (size_t i = bob.size(); i > 1; --i) {
        std::swap(bob[i - 1], bob[rng.UniformU64(i)]);
      }
    }
    std::vector<bool> drop(bob.size());
    for (size_t i = 0; i < bob.size(); ++i) drop[i] = rng.Bernoulli(0.4);
    SetOfSets recovered(rng.UniformU64(5));
    for (ChildSet& child : recovered) {
      child = !bob.empty() && rng.Bernoulli(0.2)
                  ? bob[rng.UniformU64(bob.size())]
                  : random_child(rng.Bernoulli(0.6));
    }
    ExpectAssemblesLikeCanonicalize(bob, drop, recovered, family,
                                    "trial " + std::to_string(trial));
    if (HasFailure()) break;
  }
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
  const IbltKeyView view{blob.data(), blob.size()};
  EXPECT_EQ(ChildIbltBlobFingerprint(view), 0xabcdefu);
  DecodeScratch scratch;
  Result<IbltDecodeView64> decoded =
      Iblt::DecodeFixedDifferenceU64View(config, view, IbltKeyView{}, &scratch);
  ASSERT_TRUE(decoded.ok());
  std::vector<uint64_t> keys(decoded.value().positive.begin(),
                             decoded.value().positive.end());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, child);
  EXPECT_TRUE(decoded.value().negative.empty());
}

// The reference the blob writer must match byte for byte: a table of the
// child's config with the child inserted, projected to the child-sketch
// form, then the fingerprint.
std::vector<uint8_t> TablePathBlob(const ChildSet& child,
                                   const IbltConfig& config,
                                   uint64_t fingerprint) {
  Iblt table(config);
  table.InsertBatch(child);
  ByteWriter writer;
  writer.PutBytes(SketchFormOf(table));
  writer.PutU64(fingerprint);
  return writer.Take();
}

// The largest count of any cell of `child`'s table under `config`.
int64_t MaxCellCount(const ChildSet& child, const IbltConfig& config) {
  Iblt table(config);
  table.InsertBatch(child);
  ByteWriter writer;
  table.SerializeFixed(&writer);
  int64_t max = 0;
  for (size_t i = 0; i < config.PaddedCells(); ++i) {
    uint32_t count = 0;
    std::memcpy(&count, writer.bytes().data() +
                            i * IbltConfig::FixedRecordWidth(8), 4);
    max = std::max<int64_t>(max, count);
  }
  return max;
}

// `n` keys that all land in the same partition-0 cell of `config`, so that
// cell's count, checksum and key lane each take several keys.
ChildSet CollidingChild(const IbltConfig& config, size_t n) {
  const IbltCellDerivation derivation(config);
  const auto cell = [&derivation](uint64_t key) {
    return derivation.Cell(derivation.HashU64(key).bucket, 0);
  };
  ChildSet child = {1};
  for (uint64_t key = 2; child.size() < n; ++key) {
    if (cell(key) == cell(1)) child.push_back(key);
  }
  return child;
}

TEST(ChildIbltBlobTest, WriterMatchesTablePath) {
  // A full child, then an empty one right after it (residue from the full
  // child would show in its slot), a small one, one of more than
  // Iblt::kSmallBatchMaxKeys elements (two hash blocks), keys that collide
  // in one cell, and 1,200 keys, whose counts pass 255 in small tables.
  // The sizes cover every remainder mod 8 (the vector body's lane count),
  // inside one block and in a second block's tail. The configs span
  // checksums of 2, 4 and 8 bytes, and cell counts on both sides of the
  // AVX-512 writer's register body (at most 32 cells).
  Rng rng(2024);
  auto random_child = [&rng](size_t n) {
    ChildSet child(n);
    for (uint64_t& x : child) x = rng.NextU64() >> 4;
    std::sort(child.begin(), child.end());
    return child;
  };
  std::set<size_t> check_widths;
  std::set<size_t> remainders;
  bool wrapped = false;
  for (int k : {3, 4, 5, 8}) {
    for (size_t cells : {size_t{8}, size_t{12}, size_t{16}, size_t{20},
                         size_t{24}, size_t{28}, size_t{32}, size_t{33},
                         size_t{136}, size_t{300}}) {
      IbltConfig config;
      config.cells = cells;
      config.num_hashes = k;
      config.seed = 99 + cells;
      check_widths.insert(config.SketchCheckWidth());
      const SetOfSets children = {random_child(40),
                                  {},
                                  random_child(3),
                                  random_child(Iblt::kSmallBatchMaxKeys + 72),
                                  CollidingChild(config, 4),
                                  random_child(1200),
                                  random_child(1),
                                  random_child(2),
                                  random_child(5),
                                  random_child(6),
                                  random_child(7),
                                  random_child(65),
                                  random_child(Iblt::kSmallBatchMaxKeys + 7)};
      wrapped = wrapped || MaxCellCount(children[5], config) > 255;
      std::vector<uint64_t> fps;
      for (const ChildSet& child : children) {
        remainders.insert(child.size() % 8);
        fps.push_back(0x1111 * (fps.size() + 1));
      }
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " cells=" + std::to_string(cells));
      std::vector<uint8_t> expected = {0xee};  // Packing appends.
      for (size_t i = 0; i < children.size(); ++i) {
        const std::vector<uint8_t> blob =
            TablePathBlob(children[i], config, fps[i]);
        EXPECT_EQ(EncodeChildIbltBlob(children[i], config, fps[i]), blob)
            << "child " << i;
        expected.insert(expected.end(), blob.begin(), blob.end());
      }
      ByteWriter packed;
      packed.PutU8(0xee);
      AppendChildIbltBlobs(children, config, fps, &packed);
      EXPECT_EQ(packed.bytes(), expected);
    }
  }
  EXPECT_EQ(check_widths, (std::set<size_t>{2, 4, 8}));
  EXPECT_EQ(remainders.size(), 8u);
  EXPECT_TRUE(wrapped);
}

// Partners for RecoverChild, built the way Bob builds them: each child's
// blob, a view of it, and the child.
struct PartnerSet {
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<IbltKeyView> views;
  std::vector<const ChildSet*> sets;

  PartnerSet(const SetOfSets& children, const IbltConfig& config,
             const HashFamily& fp_family) {
    for (const ChildSet& child : children) {
      blobs.push_back(EncodeChildIbltBlob(
          child, config, ChildFingerprint(child, fp_family)));
    }
    for (size_t i = 0; i < children.size(); ++i) {
      views.push_back(IbltKeyView{blobs[i].data(), blobs[i].size()});
      sets.push_back(&children[i]);
    }
  }
};

// Recovers `alice` against `bob_partners` through RecoverChild.
Result<ChildSet> RecoverAgainst(const ChildSet& alice,
                                const SetOfSets& bob_partners,
                                const IbltConfig& config,
                                const HashFamily& fp_family) {
  const uint64_t fingerprint = ChildFingerprint(alice, fp_family);
  const std::vector<uint8_t> blob =
      EncodeChildIbltBlob(alice, config, fingerprint);
  const PartnerSet partners(bob_partners, config, fp_family);
  std::vector<IbltFixedRank> order;
  DecodeScratch scratch;
  return RecoverChild(IbltKeyView{blob.data(), blob.size()}, fingerprint,
                      config, partners.views, partners.sets, fp_family,
                      &order, &scratch);
}

ChildSet RandomChild(Rng* rng, size_t n) {
  ChildSet child(n);
  for (uint64_t& x : child) x = rng->NextU64() >> 8;
  std::sort(child.begin(), child.end());
  return child;
}

// `child` with its first `removed` elements dropped and `added` fresh ones.
ChildSet Edited(ChildSet child, size_t removed, size_t added, Rng* rng) {
  child.erase(child.begin(),
              child.begin() + static_cast<std::ptrdiff_t>(removed));
  for (size_t i = 0; i < added; ++i) child.push_back(rng->NextU64() >> 8);
  std::sort(child.begin(), child.end());
  return child;
}

TEST(RecoverChildTest, TruePartnerLastInBobsOrder) {
  // Alice's child is far too large for the child table to decode alone,
  // so only its true partner, last of Bob's differing children, recovers
  // it.
  Rng rng(31);
  const IbltConfig config = IbltConfig::ForDifference(6, 32);
  const HashFamily fp_family(33, 34);
  SetOfSets bob;
  for (int i = 0; i < 5; ++i) bob.push_back(RandomChild(&rng, 60));
  const ChildSet alice = Edited(bob.back(), 2, 3, &rng);
  Result<ChildSet> recovered = RecoverAgainst(alice, bob, config, fp_family);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value(), alice);
}

TEST(RecoverChildTest, DifferenceNearDecodeLimitStillRecovers) {
  // A true partner 16 elements away from Alice's child, with a table sized
  // for 16: its difference can touch every partition-0 cell, tying it with
  // Bob's unrelated children, and as the last of them it then ranks last.
  // It must still be tried. Instances are drawn until one ranks the
  // partner last and its difference peels.
  Rng rng(41);
  const IbltConfig config = IbltConfig::ForDifference(16, 42);
  const HashFamily fp_family(43, 44);
  bool found = false;
  for (int trial = 0; trial < 400 && !found; ++trial) {
    SetOfSets bob;
    for (int i = 0; i < 4; ++i) bob.push_back(RandomChild(&rng, 12));
    bob.push_back(RandomChild(&rng, 48));
    const ChildSet alice = Edited(bob.back(), 8, 8, &rng);
    const std::vector<uint8_t> blob = EncodeChildIbltBlob(
        alice, config, ChildFingerprint(alice, fp_family));
    const IbltKeyView view{blob.data(), blob.size()};
    const PartnerSet partners(bob, config, fp_family);
    std::vector<IbltFixedRank> order;
    Iblt::RankFixed(config, view, partners.views, &order);
    if (order.empty() || order.back().index != bob.size() - 1) continue;
    DecodeScratch scratch;
    if (!Iblt::DecodeFixedDifferenceU64View(config, view,
                                            partners.views.back(), &scratch)
             .ok()) {
      continue;
    }
    found = true;
    Result<ChildSet> recovered = RecoverChild(
        view, ChildIbltBlobFingerprint(view), config, partners.views,
        partners.sets, fp_family, &order, &scratch);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value(), alice);
  }
  EXPECT_TRUE(found);
}

TEST(RecoverChildTest, EmptyPartnerTriedAfterEveryPartner) {
  // A fresh child of Alice's matches none of Bob's differing children; the
  // empty set, tried after them, recovers it.
  Rng rng(51);
  const IbltConfig config = IbltConfig::ForDifference(8, 52);
  const HashFamily fp_family(53, 54);
  SetOfSets bob;
  for (int i = 0; i < 4; ++i) bob.push_back(RandomChild(&rng, 30));
  const ChildSet fresh = RandomChild(&rng, 5);
  for (const SetOfSets& partners : {bob, SetOfSets{}}) {
    Result<ChildSet> recovered =
        RecoverAgainst(fresh, partners, config, fp_family);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value(), fresh);
  }
  // Too large to decode alone, and no partner: a detectable failure.
  Result<ChildSet> failed =
      RecoverAgainst(RandomChild(&rng, 60), bob, config, fp_family);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDecodeFailure);
}

TEST(RecoverChildTest, TruncatedCheckCollisionNeverYieldsAnotherChild) {
  // Child sketches carry 2-byte checksums here. A cell holding +a, +b and
  // -c has count 1, key a ^ b ^ c and checksum h(a) ^ h(b) ^ h(c), and
  // passes as pure when h(a ^ b ^ c) matches that checksum in its low 16
  // bits. Such a triple is brute-forced in one partition-0 cell (about
  // 2^18 draws), Alice's child holding a and b and Bob's partner c. The
  // false peel may end the decode or leave a wrong candidate, but the
  // 64-bit child fingerprint rejects every wrong candidate: RecoverChild
  // returns Alice's child or kDecodeFailure.
  const IbltConfig config = IbltConfig::ForDifference(2, 91);
  ASSERT_EQ(config.SketchCheckWidth(), 2u);
  const uint64_t mask = 0xffff;
  const IbltCellDerivation derivation(config);
  const auto hashes = [&derivation](uint64_t key) {
    return derivation.HashU64(key);
  };
  const auto cell0 = [&](uint64_t key) {
    return derivation.Cell(hashes(key).bucket, 0);
  };
  Rng rng(92);
  const uint64_t a = rng.NextU64() >> 8;
  uint64_t b = rng.NextU64() >> 8;
  while (cell0(b) != cell0(a)) b = rng.NextU64() >> 8;
  const uint64_t ab_check = hashes(a).check ^ hashes(b).check;
  uint64_t c = 0;
  bool found = false;
  for (int tries = 0; tries < (1 << 24) && !found; ++tries) {
    c = rng.NextU64() >> 8;
    found = c != a && c != b && cell0(c) == cell0(a) &&
            ((ab_check ^ hashes(c).check ^ hashes(a ^ b ^ c).check) &
             mask) == 0;
  }
  ASSERT_TRUE(found);

  const HashFamily fp_family(93, 94);
  for (size_t shared : {size_t{3}, size_t{40}}) {
    SCOPED_TRACE("shared=" + std::to_string(shared));
    const ChildSet common = RandomChild(&rng, shared);
    ChildSet alice = common;
    alice.push_back(a);
    alice.push_back(b);
    std::sort(alice.begin(), alice.end());
    ChildSet partner = common;
    partner.push_back(c);
    std::sort(partner.begin(), partner.end());
    const uint64_t fingerprint = ChildFingerprint(alice, fp_family);
    const std::vector<uint8_t> blob =
        EncodeChildIbltBlob(alice, config, fingerprint);
    const SetOfSets bob = {partner};
    const PartnerSet partners(bob, config, fp_family);

    // The false peel: whatever the blob decode returns is not the
    // difference, and the candidate it makes fails the fingerprint.
    DecodeScratch scratch;
    Result<IbltDecodeView64> decoded = Iblt::DecodeFixedDifferenceU64View(
        config, IbltKeyView{blob.data(), blob.size()}, partners.views[0],
        &scratch);
    if (decoded.ok()) {
      std::sort(decoded.value().positive.begin(),
                decoded.value().positive.end());
      const ChildSet candidate = ApplyDifference(
          partner, decoded.value().positive, decoded.value().negative);
      EXPECT_NE(candidate, alice);
      EXPECT_NE(ChildFingerprint(candidate, fp_family), fingerprint);
    }

    std::vector<IbltFixedRank> order;
    Result<ChildSet> recovered = RecoverChild(
        IbltKeyView{blob.data(), blob.size()}, fingerprint, config,
        partners.views, partners.sets, fp_family, &order, &scratch);
    if (shared == 3) {
      // Five keys decode alone: the empty partner recovers the child.
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    }
    if (recovered.ok()) {
      EXPECT_EQ(recovered.value(), alice);
    } else {
      EXPECT_EQ(recovered.status().code(), StatusCode::kDecodeFailure);
    }
  }
}

TEST(RecoverChildTest, WrongWidthBlobRejected) {
  // A blob one byte short or long of ChildIbltBlobWidth is a parse error
  // before any partner is tried, even a partner equal to the child.
  const IbltConfig config = IbltConfig::ForDifference(8, 62);
  const HashFamily fp_family(63, 64);
  const SetOfSets bob = {{1, 2, 3}};
  const PartnerSet partners(bob, config, fp_family);
  std::vector<uint8_t> blob = partners.blobs[0];
  const uint64_t fingerprint = ChildFingerprint(bob[0], fp_family);
  std::vector<IbltFixedRank> order;
  DecodeScratch scratch;
  for (size_t width : {blob.size() - 1, blob.size() + 1}) {
    blob.resize(width);
    Result<ChildSet> recovered =
        RecoverChild(IbltKeyView{blob.data(), blob.size()}, fingerprint,
                     config, partners.views, partners.sets, fp_family,
                     &order, &scratch);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
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
