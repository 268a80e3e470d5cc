// Fuzz round-trip tests for the sparse wire codec: sparse-encode, decode,
// and compare cell-for-cell against the in-memory table (via the fixed
// serialization, which lists every cell) for randomized tables across the
// shapes the protocols actually send — empty, singleton, lightly loaded,
// saturated, and wide blob keys of any width (short final mask groups
// included), with all-zero, all-non-zero and sparse key groups. Every
// frame is also compared byte for byte with a per-byte reference encoder
// kept here. Also covers delta frames against a lineage parent, the
// SerializeWith/DeserializeWith codec dispatch, and mask bits past a short
// final group.
//
// Runs under the `fast` ctest label, so the asan preset exercises every
// decode path with sanitizers on.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
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

// A key whose 8-byte groups are each all zero, all non-zero, sparse (each
// byte zero half the time) or random bytes, so frames carry every mask
// shape, not only the near-0xff masks of random keys.
std::vector<uint8_t> MixedKey(size_t width, Rng* rng) {
  std::vector<uint8_t> key(width);
  for (size_t g = 0; g < width; g += 8) {
    const uint64_t shape = rng->NextU64() % 4;
    for (size_t b = g; b < std::min(width, g + 8); ++b) {
      const uint8_t byte = static_cast<uint8_t>(rng->NextU64());
      switch (shape) {
        case 0: key[b] = 0; break;
        case 1: key[b] = static_cast<uint8_t>(byte | 1); break;
        case 2: key[b] = (rng->NextU64() & 1) ? byte : 0; break;
        default: key[b] = byte; break;
      }
    }
  }
  return key;
}

// Key widths 1..80, every fourth one a cascade T* blob width (4 + 8h, the
// ChildBlobWidth of h elements), whose final mask group is 4 bytes.
size_t DrawKeyWidth(int trial, Rng* rng) {
  if (trial % 4 == 0) return 4 + 8 * (1 + rng->NextU64() % 9);
  return 1 + rng->NextU64() % 80;
}

// --- Reference encoder: the sparse codec's algorithm written byte by byte
// from the frame layout (src/net/README.md), independent of the library's
// in-place encoder. Cells are read back from the fixed form.

struct RefCell {
  int64_t count = 0;
  uint64_t check = 0;
  std::vector<uint8_t> key;

  bool zero() const {
    return count == 0 && check == 0 &&
           std::all_of(key.begin(), key.end(),
                       [](uint8_t b) { return b == 0; });
  }
  bool operator==(const RefCell&) const = default;
};

std::vector<RefCell> RefCells(const Iblt& table) {
  const size_t width = table.config().key_width;
  const std::vector<uint8_t> fixed = FixedBytes(table);
  std::vector<RefCell> cells;
  for (size_t off = 0; off < fixed.size(); off += 12 + width) {
    RefCell cell;
    uint32_t count = 0;
    for (size_t i = 0; i < 4; ++i) {
      count |= static_cast<uint32_t>(fixed[off + i]) << (8 * i);
    }
    cell.count = static_cast<int32_t>(count);
    for (size_t i = 0; i < 8; ++i) {
      cell.check |= static_cast<uint64_t>(fixed[off + 4 + i]) << (8 * i);
    }
    const auto key = fixed.begin() + static_cast<std::ptrdiff_t>(off + 12);
    cell.key.assign(key, key + static_cast<std::ptrdiff_t>(width));
    cells.push_back(std::move(cell));
  }
  return cells;
}

void RefVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void RefU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint64_t RefZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

std::vector<uint8_t> RefBitmap(const std::vector<size_t>& marked,
                               size_t cells) {
  std::vector<uint8_t> bitmap((cells + 7) / 8, 0);
  for (size_t i : marked) bitmap[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  return bitmap;
}

// Count crumbs, escape list, checks, then group-masked keys.
void RefCellBlock(const std::vector<RefCell>& cells,
                  const std::vector<size_t>& marked,
                  std::vector<uint8_t>* out) {
  uint8_t crumbs = 0;
  int filled = 0;
  std::vector<size_t> escapes;
  for (size_t ord = 0; ord < marked.size(); ++ord) {
    const int64_t count = cells[marked[ord]].count;
    uint8_t code = 3;
    if (count == 1) {
      code = 0;
    } else if (count == -1) {
      code = 1;
    } else if (count == 0) {
      code = 2;
    } else {
      escapes.push_back(ord);
    }
    crumbs |= static_cast<uint8_t>(code << (2 * filled));
    if (++filled == 4) {
      out->push_back(crumbs);
      crumbs = 0;
      filled = 0;
    }
  }
  if (filled != 0) out->push_back(crumbs);
  RefVarint(escapes.size(), out);
  for (size_t ord : escapes) {
    RefVarint(ord, out);
    RefVarint(RefZigZag(cells[marked[ord]].count), out);
  }
  for (size_t i : marked) RefU64(cells[i].check, out);
  for (size_t i : marked) {
    const std::vector<uint8_t>& key = cells[i].key;
    for (size_t g = 0; g < key.size(); g += 8) {
      const size_t len = std::min<size_t>(8, key.size() - g);
      uint8_t mask = 0;
      for (size_t b = 0; b < len; ++b) {
        if (key[g + b] != 0) mask |= static_cast<uint8_t>(1u << b);
      }
      out->push_back(mask);
      for (size_t b = 0; b < len; ++b) {
        if (key[g + b] != 0) out->push_back(key[g + b]);
      }
    }
  }
}

// Mode 1 when the bitmap body is smaller than the dense cell stream, else
// mode 0 with that stream.
std::vector<uint8_t> RefSparseFrame(const Iblt& table) {
  const std::vector<RefCell> cells = RefCells(table);
  std::vector<size_t> occupied;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].zero()) occupied.push_back(i);
  }
  std::vector<uint8_t> body = RefBitmap(occupied, cells.size());
  RefCellBlock(cells, occupied, &body);
  std::vector<uint8_t> dense;
  for (const RefCell& cell : cells) {
    RefVarint(RefZigZag(cell.count), &dense);
    RefU64(cell.check, &dense);
    dense.insert(dense.end(), cell.key.begin(), cell.key.end());
  }
  std::vector<uint8_t> frame = {static_cast<uint8_t>(
      body.size() >= dense.size() ? 0 : 1)};
  const std::vector<uint8_t>& rest = body.size() >= dense.size() ? dense : body;
  frame.insert(frame.end(), rest.begin(), rest.end());
  return frame;
}

// Mode 2: the changed-cell bitmap, then (unless nothing changed) the cell
// block of the changed cells.
std::vector<uint8_t> RefDeltaFrame(const Iblt& table, const Iblt& parent) {
  const std::vector<RefCell> cells = RefCells(table);
  const std::vector<RefCell> before = RefCells(parent);
  std::vector<size_t> changed;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!(cells[i] == before[i])) changed.push_back(i);
  }
  std::vector<uint8_t> frame = {2};
  const std::vector<uint8_t> bitmap = RefBitmap(changed, cells.size());
  frame.insert(frame.end(), bitmap.begin(), bitmap.end());
  if (!changed.empty()) RefCellBlock(cells, changed, &frame);
  return frame;
}

std::vector<uint8_t> SparseFrame(const Iblt& table) {
  ByteWriter writer;
  table.SerializeSparse(&writer);
  return writer.Take();
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
  size_t bitmap_frames = 0;
  size_t raw_frames = 0;
  for (int trial = 0; trial < 300; ++trial) {
    IbltConfig config;
    config.cells = 8 + rng.NextU64() % 200;
    config.num_hashes = 4;
    config.key_width = DrawKeyWidth(trial, &rng);
    config.seed = rng.NextU64();
    Iblt table(config);
    // Load levels from empty through saturated (inserts far beyond cells).
    const size_t load = rng.NextU64() % (2 * config.cells);
    for (size_t i = 0; i < load; ++i) {
      std::vector<uint8_t> key = MixedKey(config.key_width, &rng);
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

    const std::vector<uint8_t> frame = SparseFrame(table);
    ASSERT_EQ(frame, RefSparseFrame(table))
        << "trial=" << trial << " cells=" << config.cells
        << " width=" << config.key_width << " load=" << load;
    (frame[0] == 1 ? bitmap_frames : raw_frames) += 1;
    Iblt restored = SparseRoundTrip(table, config);
    ASSERT_EQ(FixedBytes(restored), FixedBytes(table))
        << "trial=" << trial << " cells=" << config.cells
        << " width=" << config.key_width << " load=" << load;
    // The decoded table re-encodes to the same frame: the decoder left no
    // stray bytes in the key lanes' padding either.
    ASSERT_EQ(SparseFrame(restored), frame) << "trial=" << trial;

    // The sparse frame never expands: mode-0 fallback bounds it at the
    // dense stream plus the one mode byte.
    ByteWriter dense, sparse;
    table.Serialize(&dense);
    table.SerializeSparse(&sparse);
    EXPECT_LE(sparse.bytes().size(), dense.bytes().size() + 1);
  }
  EXPECT_GT(bitmap_frames, 100u);
  EXPECT_GT(raw_frames, 0u);
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
  for (int trial = 0; trial < 100; ++trial) {
    IbltConfig config;
    config.cells = 16 + rng.NextU64() % 100;
    config.num_hashes = 4;
    config.key_width = DrawKeyWidth(trial, &rng);
    config.seed = rng.NextU64();
    Iblt parent(config);
    std::vector<std::vector<uint8_t>> inserted;
    for (size_t i = 0; i < config.cells / 2; ++i) {
      inserted.push_back(MixedKey(config.key_width, &rng));
      parent.Insert(inserted.back());
    }
    // The doubling protocols' shape: the retry table is the parent plus a
    // few set changes, some removals that zero cells back out, and (every
    // third trial) none at all.
    Iblt child = parent;
    const size_t edits = trial % 3 == 0 ? 0 : 1 + rng.NextU64() % 8;
    for (size_t i = 0; i < edits; ++i) {
      switch (rng.NextU64() % 3) {
        case 0: child.Insert(MixedKey(config.key_width, &rng)); break;
        case 1: child.Erase(MixedKey(config.key_width, &rng)); break;
        default: child.Erase(inserted[rng.NextU64() % inserted.size()]); break;
      }
    }

    ByteWriter writer;
    child.SerializeDelta(parent, &writer);
    ASSERT_EQ(writer.bytes(), RefDeltaFrame(child, parent))
        << "trial=" << trial << " width=" << config.key_width;
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

TEST(IbltSparseAdversarialTest, TailGroupMaskBitsRejected) {
  // A 12-byte key is one full mask group and a 4-byte final group, whose
  // mask may set bits 0-3 only: bits 4-7 would name bytes past the key.
  IbltConfig config;
  config.cells = 8;
  config.num_hashes = 4;
  config.key_width = 12;
  config.seed = 9;
  const auto frame = [](uint8_t tail_mask) {
    ByteWriter writer;
    writer.PutU8(1);     // Mode: bitmap.
    writer.PutU8(0x01);  // Cell 0 occupied.
    writer.PutU8(0x00);  // Count code +1.
    writer.PutU8(0x00);  // No escapes.
    writer.PutU64(0x1234);
    writer.PutU8(0x01);  // First group: byte 0 only.
    writer.PutU8(0x07);
    writer.PutU8(tail_mask);
    writer.PutU8(0x09);  // The one payload byte the tail mask names.
    return writer.Take();
  };

  // In range: bit 3 is the key's last byte.
  const std::vector<uint8_t> good = frame(0x08);
  ByteReader good_reader(good);
  Result<Iblt> parsed = Iblt::DeserializeSparse(&good_reader, config);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(good_reader.empty());
  const std::vector<uint8_t> fixed = FixedBytes(parsed.value());
  const std::vector<uint8_t> key(fixed.begin() + 12, fixed.begin() + 24);
  EXPECT_EQ(key, (std::vector<uint8_t>{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}));

  for (int bit = 4; bit < 8; ++bit) {
    const std::vector<uint8_t> bad = frame(static_cast<uint8_t>(1u << bit));
    ByteReader reader(bad);
    Result<Iblt> restored = Iblt::DeserializeSparse(&reader, config);
    ASSERT_FALSE(restored.ok()) << "tail mask bit " << bit;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
}

}  // namespace
}  // namespace setrec
