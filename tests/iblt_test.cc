#include "iblt/iblt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "hashing/random.h"
#include "tests/sketch_form.h"

namespace setrec {
namespace {

std::vector<uint64_t> SortedU64(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(IbltConfigTest, PaddedCellsMultipleOfHashes) {
  IbltConfig config;
  config.cells = 13;
  config.num_hashes = 4;
  EXPECT_EQ(config.PaddedCells(), 16u);
  config.cells = 16;
  EXPECT_EQ(config.PaddedCells(), 16u);
}

TEST(IbltConfigTest, ForDifferenceScalesLinearly) {
  IbltConfig small = IbltConfig::ForDifference(10, 1);
  IbltConfig large = IbltConfig::ForDifference(1000, 1);
  EXPECT_GT(large.cells, 50 * small.cells / 10);
  EXPECT_GE(small.cells, 12u);
}

TEST(IbltConfigTest, FixedSerializedSize) {
  IbltConfig config;
  config.cells = 16;
  config.num_hashes = 4;
  config.key_width = 8;
  EXPECT_EQ(config.FixedSerializedSize(), 16u * (4 + 8 + 8));
}

TEST(IbltConfigTest, SketchCheckWidthBoundaries) {
  // km-peeler's ⌈(k−2)·ln n + k⌉ bits, in 2, 4 or 8 bytes: the last n that
  // fits 16 bits is ⌊e^((16−k)/(k−2))⌋, the last that fits 32 bits
  // ⌊e^((32−k)/(k−2))⌋.
  struct Edge {
    int k;
    size_t last_n;
    size_t width;  // Bytes at last_n; twice that at last_n + 1.
  };
  for (const Edge& edge : {Edge{3, 442413, 2}, Edge{3, 3931334297144, 4},
                           Edge{4, 403, 2}, Edge{4, 1202604, 4},
                           Edge{5, 39, 2}, Edge{5, 8103, 4}, Edge{6, 12, 2},
                           Edge{6, 665, 4}, Edge{8, 3, 2}, Edge{8, 54, 4}}) {
    SCOPED_TRACE("k=" + std::to_string(edge.k) +
                 " n=" + std::to_string(edge.last_n));
    EXPECT_EQ(IbltConfig::SketchCheckWidthFor(edge.last_n, edge.k),
              edge.width);
    EXPECT_EQ(IbltConfig::SketchCheckWidthFor(edge.last_n + 1, edge.k),
              2 * edge.width);
  }
  // Two or fewer hashes need k bits at most; at n <= 1 the log vanishes,
  // so k bits decide alone.
  EXPECT_EQ(IbltConfig::SketchCheckWidthFor(size_t{1} << 40, 2), 2u);
  EXPECT_EQ(IbltConfig::SketchCheckWidthFor(size_t{1} << 40, 1), 2u);
  EXPECT_EQ(IbltConfig::SketchCheckWidthFor(0, 4), 2u);
  EXPECT_EQ(IbltConfig::SketchCheckWidthFor(1, 16), 2u);
  EXPECT_EQ(IbltConfig::SketchCheckWidthFor(1, 17), 4u);
  EXPECT_EQ(IbltConfig::SketchCheckWidthFor(1, 33), 8u);

  // The integer thresholds agree with the formula in floating point.
  for (int k = 3; k <= 12; ++k) {
    for (size_t n = 1; n < 5000; n += 1 + n / 64) {
      const long double bits =
          std::ceil(static_cast<long double>(k - 2) *
                        std::log(static_cast<long double>(n)) +
                    static_cast<long double>(k));
      const size_t want = bits <= 16 ? 2 : bits <= 32 ? 4 : 8;
      EXPECT_EQ(IbltConfig::SketchCheckWidthFor(n, k), want)
          << "k=" << k << " n=" << n;
    }
  }

  // A config's width is that of n = PaddedCells() / 2. At k = 4, 804
  // cells (n = 402) take 2 bytes and 808 cells (n = 404) take 4.
  IbltConfig config;
  config.num_hashes = 4;
  config.cells = 804;
  EXPECT_EQ(config.SketchCheckWidth(), 2u);
  EXPECT_EQ(config.SketchSize(), 804u * (1 + 2 + 8));
  config.cells = 805;  // Pads to 808.
  EXPECT_EQ(config.SketchCheckWidth(), 4u);
  EXPECT_EQ(config.SketchSize(), 808u * (1 + 4 + 8));
  // A child sketch sized for a difference of 64: 136 cells of 11 bytes.
  const IbltConfig child = IbltConfig::ForDifference(64, 1);
  EXPECT_EQ(child.PaddedCells(), 136u);
  EXPECT_EQ(child.SketchSize(), 136u * 11);
}

TEST(IbltTest, InsertThenDecodePositive) {
  Iblt table(IbltConfig::ForDifference(8, 42));
  table.InsertU64(100);
  table.InsertU64(200);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SortedU64(decoded.value().positive),
            (std::vector<uint64_t>{100, 200}));
  EXPECT_TRUE(decoded.value().negative.empty());
}

TEST(IbltTest, EraseUnseenKeyDecodesNegative) {
  Iblt table(IbltConfig::ForDifference(8, 42));
  table.EraseU64(77);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().positive.empty());
  EXPECT_EQ(decoded.value().negative, (std::vector<uint64_t>{77}));
}

TEST(IbltTest, InsertEraseCancelsExactly) {
  Iblt table(IbltConfig::ForDifference(8, 42));
  for (uint64_t k = 0; k < 1000; ++k) table.InsertU64(k);
  for (uint64_t k = 0; k < 1000; ++k) table.EraseU64(k);
  EXPECT_TRUE(table.IsZero());
}

TEST(IbltTest, MixedSignsDecodeAsTwoSets) {
  Iblt table(IbltConfig::ForDifference(10, 7));
  table.InsertU64(1);
  table.InsertU64(2);
  table.EraseU64(3);
  table.EraseU64(4);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SortedU64(decoded.value().positive),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(SortedU64(decoded.value().negative),
            (std::vector<uint64_t>{3, 4}));
}

TEST(IbltTest, SubtractYieldsSymmetricDifference) {
  IbltConfig config = IbltConfig::ForDifference(10, 5);
  Iblt alice(config), bob(config);
  // Shared elements 0..999; Alice extra {5000, 5001}; Bob extra {6000}.
  for (uint64_t k = 0; k < 1000; ++k) {
    alice.InsertU64(k);
    bob.InsertU64(k);
  }
  alice.InsertU64(5000);
  alice.InsertU64(5001);
  bob.InsertU64(6000);
  ASSERT_TRUE(alice.Subtract(bob).ok());
  Result<IbltDecodeResult64> decoded = alice.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SortedU64(decoded.value().positive),
            (std::vector<uint64_t>{5000, 5001}));
  EXPECT_EQ(SortedU64(decoded.value().negative),
            (std::vector<uint64_t>{6000}));
}

TEST(IbltTest, SubtractMismatchedConfigRejected) {
  Iblt a(IbltConfig::ForDifference(10, 5));
  Iblt b(IbltConfig::ForDifference(10, 6));  // Different seed.
  EXPECT_EQ(a.Subtract(b).code(), StatusCode::kInvalidArgument);
}

TEST(IbltTest, AddThenSubtractRoundTrips) {
  IbltConfig config = IbltConfig::ForDifference(10, 5);
  Iblt a(config), b(config);
  a.InsertU64(1);
  b.InsertU64(2);
  Iblt sum = a;
  ASSERT_TRUE(sum.Add(b).ok());
  ASSERT_TRUE(sum.Subtract(b).ok());
  Result<IbltDecodeResult64> decoded = sum.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().positive, (std::vector<uint64_t>{1}));
}

TEST(IbltTest, OverloadedTableFailsDetectably) {
  // 200 keys in a 12-cell table cannot decode; failure must be detected.
  Iblt table(IbltConfig::ForDifference(1, 3));
  for (uint64_t k = 0; k < 200; ++k) table.InsertU64(k);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDecodeFailure);
}

TEST(IbltTest, DecodePartialReportsIncomplete) {
  Iblt table(IbltConfig::ForDifference(1, 3));
  for (uint64_t k = 0; k < 200; ++k) table.InsertU64(k);
  IbltPartialDecode partial = table.DecodePartial();
  EXPECT_FALSE(partial.complete);
}

TEST(IbltTest, DecodeIsNonDestructive) {
  Iblt table(IbltConfig::ForDifference(8, 9));
  table.InsertU64(5);
  ASSERT_TRUE(table.DecodeU64().ok());
  Result<IbltDecodeResult64> again = table.DecodeU64();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().positive, (std::vector<uint64_t>{5}));
}

TEST(IbltTest, DuplicateKeyInsertionsDoNotDecode) {
  // Two copies of a key never become a pure cell: sets only.
  Iblt table(IbltConfig::ForDifference(8, 9));
  table.InsertU64(5);
  table.InsertU64(5);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  EXPECT_FALSE(decoded.ok());
}

TEST(IbltTest, SerializeDeserializeRoundTrip) {
  IbltConfig config = IbltConfig::ForDifference(10, 21);
  Iblt table(config);
  for (uint64_t k = 0; k < 500; ++k) table.InsertU64(k * 3);
  table.EraseU64(999999);
  ByteWriter writer;
  table.Serialize(&writer);
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::Deserialize(&reader, config);
  ASSERT_TRUE(restored.ok());
  // Subtracting the restored copy from the original must cancel exactly.
  ASSERT_TRUE(table.Subtract(restored.value()).ok());
  EXPECT_TRUE(table.IsZero());
}

TEST(IbltTest, FixedSerializationHasExactSize) {
  IbltConfig config = IbltConfig::ForDifference(7, 22);
  Iblt table(config);
  table.InsertU64(1);
  ByteWriter writer;
  table.SerializeFixed(&writer);
  EXPECT_EQ(writer.size(), config.FixedSerializedSize());
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::DeserializeFixed(&reader, config);
  ASSERT_TRUE(restored.ok());
  Result<IbltDecodeResult64> decoded = restored.value().DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().positive, (std::vector<uint64_t>{1}));
}

// Child-sketch form of a table holding `keys`, plus an 8-byte trailer the
// way a child blob ends in its fingerprint.
std::vector<uint8_t> SketchBytes(const IbltConfig& config,
                                 const std::vector<uint64_t>& keys,
                                 uint64_t trailer) {
  Iblt table(config);
  table.InsertBatch(keys);
  ByteWriter writer;
  writer.PutBytes(SketchFormOf(table));
  writer.PutU64(trailer);
  return writer.Take();
}

std::vector<uint64_t> RandomKeys(Rng* rng, size_t n) {
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) key = rng->NextU64();
  return keys;
}

TEST(IbltRankFixedTest, CloseTableRanksFirstFromLastPlace) {
  // Five unrelated 24-key tables, then the target's keys with three
  // swapped for fresh ones (six keys of difference), last.
  Rng rng(61);
  const IbltConfig config = IbltConfig::ForDifference(8, 62);
  const std::vector<uint64_t> target_keys = RandomKeys(&rng, 24);
  const std::vector<uint8_t> target = SketchBytes(config, target_keys, 1);
  std::vector<std::vector<uint8_t>> tables;
  for (int i = 0; i < 5; ++i) {
    tables.push_back(SketchBytes(config, RandomKeys(&rng, 24), 2));
  }
  std::vector<uint64_t> close = target_keys;
  for (size_t i = 0; i < 3; ++i) close[i] = rng.NextU64();
  tables.push_back(SketchBytes(config, close, 3));
  std::vector<IbltKeyView> views;
  for (const std::vector<uint8_t>& t : tables) {
    views.push_back(IbltKeyView{t.data(), t.size()});
  }

  std::vector<IbltFixedRank> order = {{7, 7}};  // Cleared, then refilled.
  Iblt::RankFixed(config, IbltKeyView{target.data(), target.size()}, views,
                  &order);
  ASSERT_EQ(order.size(), views.size());
  EXPECT_EQ(order.front().index, views.size() - 1);
  EXPECT_LE(order.front().distance, 6u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  std::set<size_t> indices;
  for (const IbltFixedRank& rank : order) indices.insert(rank.index);
  EXPECT_EQ(indices.size(), views.size());  // Every candidate, once.
  const size_t partition = config.PaddedCells() / 4;
  for (const IbltFixedRank& rank : order) {
    EXPECT_LE(rank.distance, partition);
  }
  // 48 keys over the partition's cells leave almost none of them equal.
  EXPECT_GE(order.back().distance, partition - 2);
}

TEST(IbltRankFixedTest, TiesKeepCandidateOrderAndTrailersAreIgnored) {
  // Equal tables with different trailers are at distance 0 in list order;
  // the empty table differs in exactly the target's nonzero partition-0
  // cells.
  Rng rng(71);
  const IbltConfig config = IbltConfig::ForDifference(4, 72, 8, 3);
  const std::vector<uint64_t> keys = RandomKeys(&rng, 5);
  const std::vector<uint8_t> target = SketchBytes(config, keys, 9);
  const std::vector<uint8_t> empty = SketchBytes(config, {}, 0);
  const std::vector<uint8_t> same_a = SketchBytes(config, keys, 10);
  const std::vector<uint8_t> same_b = SketchBytes(config, keys, 11);
  const std::vector<IbltKeyView> views = {
      {empty.data(), empty.size()},
      {same_a.data(), same_a.size()},
      {same_b.data(), same_b.size()}};
  std::vector<IbltFixedRank> order;
  Iblt::RankFixed(config, IbltKeyView{target.data(), target.size()}, views,
                  &order);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (IbltFixedRank{0, 1}));
  EXPECT_EQ(order[1], (IbltFixedRank{0, 2}));
  // A cell's count, checksum and key bytes sit in three sections.
  const size_t cells = config.PaddedCells();
  const size_t partition = cells / 3;
  const size_t w = config.SketchCheckWidth();
  const auto any_set = [](const uint8_t* bytes, size_t n) {
    return std::any_of(bytes, bytes + n, [](uint8_t b) { return b != 0; });
  };
  size_t nonzero = 0;
  for (size_t r = 0; r < partition; ++r) {
    nonzero += any_set(target.data() + r, 1) ||
               any_set(target.data() + cells + r * w, w) ||
               any_set(target.data() + cells * (1 + w) + 8 * r, 8);
  }
  EXPECT_GT(nonzero, 0u);
  EXPECT_EQ(order[2], (IbltFixedRank{nonzero, 0}));
}

TEST(IbltTest, DeserializeTruncatedRejected) {
  IbltConfig config = IbltConfig::ForDifference(7, 23);
  std::vector<uint8_t> junk = {1, 2, 3};
  ByteReader reader(junk);
  Result<Iblt> restored = Iblt::Deserialize(&reader, config);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(BlobIbltTest, WideKeysRoundTrip) {
  IbltConfig config = IbltConfig::ForDifference(6, 31, /*key_width=*/24);
  Iblt table(config);
  std::vector<uint8_t> blob_a(24, 0xaa);
  std::vector<uint8_t> blob_b(24, 0);
  blob_b[23] = 7;
  table.Insert(blob_a);
  table.Erase(blob_b);
  Result<IbltDecodeResult> decoded = table.Decode();
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().positive.size(), 1u);
  ASSERT_EQ(decoded.value().negative.size(), 1u);
  EXPECT_EQ(decoded.value().positive[0], blob_a);
  EXPECT_EQ(decoded.value().negative[0], blob_b);
}

// --- Property sweep: decode success across difference sizes and key
// widths (Theorem 2.1: O(d) cells recover d keys w.h.p.). ---
struct SweepParam {
  size_t diff;
  size_t key_width;
};

class IbltDecodeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IbltDecodeSweep, DecodesAtSizedCapacity) {
  const SweepParam param = GetParam();
  int successes = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    IbltConfig config =
        IbltConfig::ForDifference(param.diff, static_cast<uint64_t>(1000 + trial),
                                  param.key_width);
    Iblt table(config);
    Rng rng(static_cast<uint64_t>(trial) * 31 + param.diff);
    std::set<std::vector<uint8_t>, KeyBytesLess> keys;
    while (keys.size() < param.diff) {
      std::vector<uint8_t> key(param.key_width);
      for (auto& b : key) b = static_cast<uint8_t>(rng.NextU64());
      keys.insert(key);
    }
    for (const auto& key : keys) table.Insert(key);
    Result<IbltDecodeResult> decoded = table.Decode();
    if (decoded.ok() && decoded.value().positive.size() == param.diff) {
      ++successes;
    }
  }
  // ForDifference targets w.h.p. decode; allow a couple of unlucky trials
  // (protocols amplify with retries on top of this).
  EXPECT_GE(successes, trials - 2)
      << "diff=" << param.diff << " width=" << param.key_width;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, IbltDecodeSweep,
    ::testing::Values(SweepParam{1, 8}, SweepParam{2, 8}, SweepParam{4, 8},
                      SweepParam{8, 8}, SweepParam{16, 8}, SweepParam{32, 8},
                      SweepParam{64, 8}, SweepParam{128, 8},
                      SweepParam{8, 16}, SweepParam{16, 48},
                      SweepParam{32, 100}));

// --- Property sweep: subtraction with a large shared core. ---
class IbltSubtractSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(IbltSubtractSweep, SharedCoreCancels) {
  const size_t diff = GetParam();
  IbltConfig config = IbltConfig::ForDifference(2 * diff, 777 + diff);
  Iblt alice(config), bob(config);
  Rng rng(diff);
  for (uint64_t k = 0; k < 5000; ++k) {
    uint64_t e = rng.NextU64();
    alice.InsertU64(e);
    bob.InsertU64(e);
  }
  std::vector<uint64_t> alice_only, bob_only;
  for (size_t i = 0; i < diff; ++i) {
    alice_only.push_back((1ull << 61) + i);
    bob_only.push_back((1ull << 62) + i);
    alice.InsertU64(alice_only.back());
    bob.InsertU64(bob_only.back());
  }
  ASSERT_TRUE(alice.Subtract(bob).ok());
  Result<IbltDecodeResult64> decoded = alice.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SortedU64(decoded.value().positive), alice_only);
  EXPECT_EQ(SortedU64(decoded.value().negative), bob_only);
}

INSTANTIATE_TEST_SUITE_P(Diffs, IbltSubtractSweep,
                         ::testing::Values(1, 2, 5, 10, 25, 60, 150));

}  // namespace
}  // namespace setrec
