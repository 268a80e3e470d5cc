// Fuzz round-trip tests for the sparse wire codec: sparse-encode, decode,
// and compare cell-for-cell against the in-memory table (via the fixed
// serialization, which lists every cell) for randomized tables across the
// shapes the protocols actually send — empty, singleton, lightly loaded,
// saturated, and wide blob keys. Also covers delta frames against a
// lineage parent and the SerializeWith/DeserializeWith codec dispatch.
//
// Runs under the `fast` ctest label, so the asan preset exercises every
// decode path with sanitizers on.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {
namespace {

std::vector<uint8_t> RandomKey(size_t width, Rng* rng) {
  std::vector<uint8_t> key(width);
  for (auto& b : key) b = static_cast<uint8_t>(rng->NextU64());
  return key;
}

// Cell-for-cell equality: the fixed serialization lists count, check, and
// every key byte for every cell, so byte equality there is exactly "the
// decoder rebuilt the table the encoder had".
std::vector<uint8_t> FixedBytes(const Iblt& table) {
  ByteWriter writer;
  table.SerializeFixed(&writer);
  return writer.bytes();
}

Iblt SparseRoundTrip(const Iblt& table, const IbltConfig& config) {
  ByteWriter writer;
  table.SerializeSparse(&writer);
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::DeserializeSparse(&reader, config);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.empty()) << "frame must consume exactly its bytes";
  return std::move(restored).value();
}

TEST(IbltSparseCodecTest, FuzzRoundTripMatchesDenseCellForCell) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    IbltConfig config;
    config.cells = 8 + rng.NextU64() % 200;
    config.num_hashes = 4;
    config.key_width = 8 + 8 * (rng.NextU64() % 9);  // 8..72: wide blobs too.
    config.seed = rng.NextU64();
    Iblt table(config);
    // Load levels from empty through saturated (inserts far beyond cells).
    const size_t load = rng.NextU64() % (2 * config.cells);
    for (size_t i = 0; i < load; ++i) {
      std::vector<uint8_t> key = RandomKey(config.key_width, &rng);
      switch (rng.NextU64() % 3) {
        case 0:
          table.Insert(key);
          break;
        case 1:
          table.Erase(key);
          break;
        default:  // |count| > 1 cells, exercising the escape list.
          table.Insert(key);
          table.Insert(key);
          break;
      }
    }

    Iblt restored = SparseRoundTrip(table, config);
    ASSERT_EQ(FixedBytes(restored), FixedBytes(table))
        << "trial=" << trial << " cells=" << config.cells
        << " width=" << config.key_width << " load=" << load;

    // The sparse frame never expands: mode-0 fallback bounds it at the
    // dense stream plus the one mode byte.
    ByteWriter dense, sparse;
    table.Serialize(&dense);
    table.SerializeSparse(&sparse);
    EXPECT_LE(sparse.bytes().size(), dense.bytes().size() + 1);
  }
}

TEST(IbltSparseCodecTest, EmptyAndSingletonTables) {
  IbltConfig config = IbltConfig::ForDifference(16, 7, /*key_width=*/24);
  Iblt empty(config);
  EXPECT_EQ(FixedBytes(SparseRoundTrip(empty, config)), FixedBytes(empty));

  Iblt one(config);
  Rng rng(7);
  one.Insert(RandomKey(24, &rng));
  EXPECT_EQ(FixedBytes(SparseRoundTrip(one, config)), FixedBytes(one));
  // A singleton in a mostly-empty table is the codec's best case; it must
  // come in well under the dense stream.
  ByteWriter dense, sparse;
  one.Serialize(&dense);
  one.SerializeSparse(&sparse);
  EXPECT_LT(sparse.bytes().size(), dense.bytes().size() / 2);
}

TEST(IbltSparseCodecTest, DeltaRoundTripAgainstLineageParent) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    IbltConfig config;
    config.cells = 16 + rng.NextU64() % 100;
    config.num_hashes = 4;
    config.key_width = 8 + 8 * (rng.NextU64() % 5);
    config.seed = rng.NextU64();
    Iblt parent(config);
    for (size_t i = 0; i < config.cells / 2; ++i) {
      parent.Insert(RandomKey(config.key_width, &rng));
    }
    // The doubling protocols' shape: the retry table is the parent plus a
    // few set changes (and some removals that zero cells back out).
    Iblt child = parent;
    const size_t edits = 1 + rng.NextU64() % 8;
    for (size_t i = 0; i < edits; ++i) {
      std::vector<uint8_t> key = RandomKey(config.key_width, &rng);
      if (rng.NextU64() % 2) {
        child.Insert(key);
      } else {
        child.Erase(key);
      }
    }

    ByteWriter writer;
    child.SerializeDelta(parent, &writer);
    ByteReader reader(writer.bytes());
    Result<Iblt> restored =
        Iblt::DeserializeSparse(&reader, config, TableLineage{&parent});
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(reader.empty());
    ASSERT_EQ(FixedBytes(restored.value()), FixedBytes(child))
        << "trial=" << trial;
  }
}

TEST(IbltSparseCodecTest, UnchangedTableDeltaIsJustTheBitmap) {
  IbltConfig config = IbltConfig::ForDifference(32, 13, /*key_width=*/16);
  Iblt table(config);
  Rng rng(13);
  for (int i = 0; i < 32; ++i) table.Insert(RandomKey(16, &rng));

  ByteWriter writer;
  table.SerializeDelta(table, &writer);
  // Mode byte + all-zero changed-cell bitmap, nothing else.
  EXPECT_EQ(writer.bytes().size(), 1 + (config.PaddedCells() + 7) / 8);
  ByteReader reader(writer.bytes());
  Result<Iblt> restored =
      Iblt::DeserializeSparse(&reader, config, TableLineage{&table});
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(FixedBytes(restored.value()), FixedBytes(table));
}

TEST(IbltSparseCodecTest, SerializeWithDispatchesOnCodecAndLineage) {
  IbltConfig config = IbltConfig::ForDifference(16, 21, /*key_width=*/8);
  Iblt parent(config), child(config);
  Rng rng(21);
  for (int i = 0; i < 10; ++i) parent.Insert(RandomKey(8, &rng));
  child = parent;
  child.Insert(RandomKey(8, &rng));

  // kDense ignores lineage and emits the legacy stream byte for byte.
  ByteWriter legacy, dense;
  child.Serialize(&legacy);
  child.SerializeWith(WireCodec::kDense, &dense, TableLineage{&parent});
  EXPECT_EQ(dense.bytes(), legacy.bytes());

  // kSparse without covering lineage emits a full sparse/raw frame...
  ByteWriter sparse;
  child.SerializeWith(WireCodec::kSparse, &sparse);
  ASSERT_FALSE(sparse.bytes().empty());
  EXPECT_NE(sparse.bytes()[0], 2);

  // ...and with covering lineage, a delta frame the other half decodes via
  // the same dispatch.
  ByteWriter delta;
  child.SerializeWith(WireCodec::kSparse, &delta, TableLineage{&parent});
  ASSERT_FALSE(delta.bytes().empty());
  EXPECT_EQ(delta.bytes()[0], 2);
  EXPECT_LT(delta.bytes().size(), sparse.bytes().size());
  ByteReader reader(delta.bytes());
  Result<Iblt> restored = Iblt::DeserializeWith(
      WireCodec::kSparse, &reader, config, TableLineage{&parent});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(FixedBytes(restored.value()), FixedBytes(child));

  // A config mismatch on the sender side falls back to a non-delta frame
  // rather than emitting an undecodable delta.
  IbltConfig grown = config;
  grown.cells *= 2;
  Iblt regrown(grown);
  regrown.Insert(RandomKey(8, &rng));
  ByteWriter fallback;
  regrown.SerializeWith(WireCodec::kSparse, &fallback, TableLineage{&parent});
  ASSERT_FALSE(fallback.bytes().empty());
  EXPECT_NE(fallback.bytes()[0], 2);
}

}  // namespace
}  // namespace setrec
