// Equivalence tests for the batched insert paths and the reusable decode
// scratch: every batched/scratch combination must produce tables and decode
// results identical to per-key Insert + a fresh scratch-free decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {
namespace {

std::vector<uint8_t> SerializedBytes(const Iblt& table) {
  ByteWriter writer;
  table.SerializeFixed(&writer);
  return writer.bytes();
}

std::vector<std::vector<uint8_t>> Sorted(std::vector<std::vector<uint8_t>> v) {
  std::sort(v.begin(), v.end(), KeyBytesLess{});
  return v;
}

std::vector<uint64_t> Sorted64(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Builds a deterministic packed key block (n keys of `width` bytes).
std::vector<uint8_t> RandomPackedKeys(size_t n, size_t width, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> packed(n * width);
  for (auto& b : packed) b = static_cast<uint8_t>(rng.NextU64());
  return packed;
}

TEST(IbltBatchTest, ByteBatchMatchesPerKeyInsertAcrossWidthsAndSizes) {
  // 64-bit keys, narrower and wider keys around every word and 64-byte
  // boundary (the AVX-512 batch body XORs keys 64 bytes at a time), and
  // child-blob widths. The per-key Insert is the scalar reference.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    for (size_t width : {1ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 36ul, 63ul,
                         64ul, 65ul, 140ul, 1504ul}) {
      for (size_t d : {0ul, 1ul, 10ul, 1000ul}) {
        IbltConfig config = IbltConfig::ForDifference(d, seed, width);
        std::vector<uint8_t> packed = RandomPackedKeys(d, width, seed * 7 + d);

        Iblt per_key(config);
        for (size_t j = 0; j < d; ++j) {
          per_key.Insert(packed.data() + j * width);
        }
        Iblt batched(config);
        batched.InsertBatch(packed.data(), d);
        EXPECT_EQ(SerializedBytes(per_key), SerializedBytes(batched))
            << "seed=" << seed << " width=" << width << " d=" << d;

        // Batched erase must cancel the batched insert exactly, and the
        // per-key insert too: a batch that touched a byte past key_width
        // in a cell's zero padding would leave it set.
        batched.EraseBatch(packed.data(), d);
        EXPECT_TRUE(batched.IsZero());
        per_key.EraseBatch(packed.data(), d);
        EXPECT_TRUE(per_key.IsZero());
      }
    }
  }
}

TEST(IbltBatchTest, U64BatchMatchesPerKeyInsert) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    for (size_t d : {0ul, 1ul, 10ul, 1000ul,
                     kShardedBatchMinKeysDefault + 1000}) {
      IbltConfig config = IbltConfig::ForDifference(d, seed);
      Rng rng(seed * 11 + d);
      std::vector<uint64_t> keys(d);
      for (auto& k : keys) k = rng.NextU64();

      Iblt per_key(config);
      for (uint64_t k : keys) per_key.InsertU64(k);
      Iblt batched(config);
      batched.InsertBatch(keys);
      EXPECT_EQ(SerializedBytes(per_key), SerializedBytes(batched));
    }
  }
}

TEST(IbltBatchTest, ScratchDecodeMatchesFreshDecode) {
  DecodeScratch scratch;  // Deliberately reused across every iteration.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    for (size_t width : {8ul, 36ul}) {
      for (size_t d : {0ul, 1ul, 10ul, 1000ul}) {
        IbltConfig config = IbltConfig::ForDifference(d, seed, width);
        std::vector<uint8_t> pos = RandomPackedKeys(d, width, seed * 3 + d);
        std::vector<uint8_t> neg =
            RandomPackedKeys(d / 2, width, seed * 5 + d);

        Iblt table(config);
        table.InsertBatch(pos.data(), d);
        table.EraseBatch(neg.data(), d / 2);

        IbltPartialDecode fresh = table.DecodePartial();
        IbltPartialDecodeView reused = table.DecodePartial(&scratch);
        EXPECT_EQ(fresh.complete, reused.complete);
        IbltDecodeResult materialized = reused.entries.Materialize();
        EXPECT_EQ(Sorted(fresh.entries.positive),
                  Sorted(materialized.positive));
        EXPECT_EQ(Sorted(fresh.entries.negative),
                  Sorted(materialized.negative));
      }
    }
  }
}

TEST(IbltBatchTest, ScratchDecodeU64MatchesByteDecode) {
  DecodeScratch scratch;
  for (uint64_t seed : {1ull, 2ull}) {
    for (size_t d : {1ul, 10ul, 1000ul}) {
      IbltConfig config = IbltConfig::ForDifference(d, seed);
      Rng rng(seed * 13 + d);
      std::vector<uint64_t> keys(d);
      for (auto& k : keys) k = rng.NextU64();
      Iblt table(config);
      table.InsertBatch(keys);

      Result<IbltDecodeResult64> fresh = table.DecodeU64();
      Result<IbltDecodeResult64> reused = table.DecodeU64(&scratch);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(reused.ok());
      EXPECT_EQ(Sorted64(fresh.value().positive),
                Sorted64(reused.value().positive));
      EXPECT_EQ(Sorted64(fresh.value().positive), Sorted64(keys));
      EXPECT_TRUE(reused.value().negative.empty());
    }
  }
}

TEST(IbltBatchTest, ScratchAdaptsAcrossConfigs) {
  // One scratch serving tables of very different sizes and key widths, in
  // both orders (grow then shrink) — the cascading protocol's usage shape.
  DecodeScratch scratch;
  for (size_t d : {1000ul, 4ul, 300ul, 1ul}) {
    for (size_t width : {8ul, 20ul}) {
      IbltConfig config = IbltConfig::ForDifference(d, d + width, width);
      std::vector<uint8_t> packed = RandomPackedKeys(d, width, d * 31 + width);
      Iblt table(config);
      table.InsertBatch(packed.data(), d);
      IbltPartialDecodeView out = table.DecodePartial(&scratch);
      EXPECT_TRUE(out.complete);
      EXPECT_EQ(out.entries.positive.size(), d);
    }
  }
}

TEST(IbltBatchTest, SubtractAndAddRejectMismatchedConfigs) {
  IbltConfig base;
  base.cells = 32;
  base.num_hashes = 4;
  base.key_width = 8;
  base.seed = 5;
  Iblt table(base);

  IbltConfig wrong_cells = base;
  wrong_cells.cells = 64;
  IbltConfig wrong_hashes = base;
  wrong_hashes.num_hashes = 3;
  IbltConfig wrong_width = base;
  wrong_width.key_width = 16;
  IbltConfig wrong_seed = base;
  wrong_seed.seed = 6;
  for (const IbltConfig& config :
       {wrong_cells, wrong_hashes, wrong_width, wrong_seed}) {
    Iblt other(config);
    EXPECT_FALSE(table.Subtract(other).ok());
    EXPECT_FALSE(table.Add(other).ok());
  }
  Iblt same(base);
  EXPECT_TRUE(table.Subtract(same).ok());
  EXPECT_TRUE(table.Add(same).ok());
}

}  // namespace
}  // namespace setrec
