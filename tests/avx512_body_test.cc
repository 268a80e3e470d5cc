// The AVX-512 bodies of the IBLT block step, the child-sketch writer and
// SetFingerprint's element sum against their scalar bodies, and the batch
// cell updates against per-key inserts, on random keys. The protocols run
// whichever body the CPU supports (CpuHasAvx512), so on an AVX-512 host
// this is the one place the scalar bodies still meet the vector ones. Keys
// sit at the very end of a readable page, with an unreadable page after
// them, so a body that reads past its span faults here: asan cannot see a
// masked vector access past the end, so every vector body needs a case
// here.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "hashing/hash.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {
namespace {

constexpr const char* kNoAvx512 = "this CPU lacks AVX-512F/DQ/BW";

// Room for `capacity` bytes that end where an unreadable page begins.
class GuardedKeys {
 public:
  explicit GuardedKeys(size_t capacity) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    readable_ = (capacity + page - 1) / page * page;
    mapped_ = readable_ + page;
    void* map = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) return;
    base_ = static_cast<uint8_t*>(map);
    if (mprotect(base_ + readable_, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      base_ = nullptr;
    }
  }
  ~GuardedKeys() {
    if (base_ != nullptr) munmap(base_, mapped_);
  }
  GuardedKeys(const GuardedKeys&) = delete;
  GuardedKeys& operator=(const GuardedKeys&) = delete;

  bool ok() const { return base_ != nullptr; }

  // Copies `bytes` so that the last one ends at the unreadable page.
  const uint8_t* Place(const uint8_t* bytes, size_t size) {
    uint8_t* at = base_ + readable_ - size;
    if (size != 0) std::memcpy(at, bytes, size);
    return at;
  }
  const uint8_t* Place(const std::vector<uint8_t>& bytes) {
    return Place(bytes.data(), bytes.size());
  }
  // 64-bit keys end at the page too; the page end is 8-aligned.
  const uint64_t* Place(const std::vector<uint64_t>& keys) {
    return reinterpret_cast<const uint64_t*>(Place(
        reinterpret_cast<const uint8_t*>(keys.data()), keys.size() * 8));
  }
  // `size` zero bytes that end at the unreadable page, for a body to write
  // into: a store past them faults.
  uint8_t* Zeroed(size_t size) {
    uint8_t* at = base_ + readable_ - size;
    std::memset(at, 0, size);
    return at;
  }

 private:
  size_t readable_ = 0;
  size_t mapped_ = 0;
  uint8_t* base_ = nullptr;
};

std::vector<uint64_t> RandomKeys(Rng* rng, size_t n) {
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) key = rng->NextU64();
  return keys;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng->NextU64());
  return bytes;
}

// Runs both block step bodies on every block of the n keys packed at
// `key_width` bytes in `keys`, each block placed to end at the guard page,
// and expects the same checks and cells.
void ExpectBlockStepsMatch(const IbltCellDerivation& derivation,
                           size_t partition_width, const uint8_t* keys,
                           size_t n, GuardedKeys* guarded) {
  constexpr size_t kBlock = IbltCellDerivation::kBlockKeys;
  const size_t w = derivation.key_width();
  const int k = derivation.num_hashes();
  // A batch of more than one block runs a full block, then its tail.
  for (size_t first = 0; first < n; first += kBlock) {
    const size_t block = std::min(n - first, kBlock);
    const uint8_t* at = guarded->Place(keys + first * w, block * w);
    for (int group = 0; group < k; group += IbltCellDerivation::kBlockHashes) {
      const int count = std::min(k - group, IbltCellDerivation::kBlockHashes);
      IbltCellDerivation::BlockHashes scalar;
      IbltCellDerivation::BlockHashes vector;
      derivation.BlockStepScalar(at, block, group, count, &scalar);
      derivation.BlockStepAvx512(at, block, group, count, &vector);
      for (size_t j = 0; j < block; ++j) {
        ASSERT_EQ(vector.checks[j], scalar.checks[j]) << "key " << first + j;
        for (int i = 0; i < count; ++i) {
          ASSERT_EQ(vector.cells[i][j], scalar.cells[i][j])
              << "key " << first + j << " hash " << group + i;
          ASSERT_LT(scalar.cells[i][j],
                    static_cast<size_t>(group + i + 1) * partition_width);
        }
      }
    }
  }
}

std::vector<size_t> BatchSizes() {
  constexpr size_t kBlock = IbltCellDerivation::kBlockKeys;
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {kBlock - 1, kBlock, kBlock + 1});
  return sizes;
}

TEST(Avx512BodyTest, BlockStepMatchesScalar) {
  if (!CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  GuardedKeys guarded(IbltCellDerivation::kBlockKeys * 8);
  ASSERT_TRUE(guarded.ok());
  Rng rng(23);
  for (int k : {1, 2, 3, 4, 5, 8, 11}) {
    // Partition widths m/k with the reciprocal remainder, and powers of
    // two, which the vector body reduces with a mask.
    for (size_t width :
         {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8}, size_t{35},
          size_t{64}, size_t{403}, size_t{65537}, size_t{1} << 20,
          (size_t{1} << 21) + 1}) {
      IbltConfig config;
      config.cells = width * static_cast<size_t>(k);
      config.num_hashes = k;
      config.seed = rng.NextU64();
      const IbltCellDerivation derivation(config);
      for (size_t n : BatchSizes()) {
        SCOPED_TRACE("k=" + std::to_string(k) + " m/k=" +
                     std::to_string(width) + " n=" + std::to_string(n));
        const std::vector<uint64_t> keys = RandomKeys(&rng, n);
        ExpectBlockStepsMatch(derivation, width,
                              reinterpret_cast<const uint8_t*>(keys.data()),
                              n, &guarded);
      }
    }
  }
}

TEST(Avx512BodyTest, ByteKeyBlockStepMatchesScalar) {
  if (!CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  // Every remainder mod 8 (the tail word) and mod 64 (the final chunk),
  // and the child-blob widths of 8, 16, 12, 95, 136 and 140 cells.
  std::vector<size_t> widths;
  for (size_t w = 1; w <= 17; ++w) widths.push_back(w);
  widths.insert(widths.end(), {63, 64, 65, 96, 140, 184, 1044, 1504, 1548});
  const size_t max_width = *std::max_element(widths.begin(), widths.end());
  GuardedKeys guarded((IbltCellDerivation::kBlockKeys + 1) * max_width);
  ASSERT_TRUE(guarded.ok());
  Rng rng(31);
  for (size_t key_width : widths) {
    for (int k : {1, 4}) {
      for (size_t width : {size_t{8}, size_t{35}}) {
        IbltConfig config;
        config.cells = width * static_cast<size_t>(k);
        config.num_hashes = k;
        config.key_width = key_width;
        config.seed = rng.NextU64();
        const IbltCellDerivation derivation(config);
        for (size_t n : BatchSizes()) {
          SCOPED_TRACE("key_width=" + std::to_string(key_width) +
                       " k=" + std::to_string(k) + " m/k=" +
                       std::to_string(width) + " n=" + std::to_string(n));
          const std::vector<uint8_t> keys = RandomBytes(&rng, n * key_width);
          ExpectBlockStepsMatch(derivation, width, keys.data(), n, &guarded);
          // The scalar body is HashBytesPair itself.
          if (n > 0) {
            IbltCellDerivation::BlockHashes scalar;
            derivation.BlockStepScalar(keys.data(), 1, 0, 1, &scalar);
            EXPECT_EQ(scalar.checks[0],
                      HashFamily(config.seed, 0x6368656bull)
                          .HashBytes(keys.data(), key_width));
          }
        }
      }
    }
  }
}

TEST(Avx512BodyTest, ByteKeyBatchMatchesPerKeyAtGuardPage) {
  if (!CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  // InsertBatch/EraseBatch of blob keys that end at the unreadable page, so
  // a masked load past the last key in the batch's cell updates
  // (UpdateCells) faults. The per-key Insert is the reference.
  std::vector<size_t> widths;
  for (size_t w = 1; w <= 17; ++w) widths.push_back(w);
  widths.insert(widths.end(), {63, 64, 65, 127, 128, 129, 1504});
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(129);
  GuardedKeys guarded(129 * 1504);
  ASSERT_TRUE(guarded.ok());
  Rng rng(41);
  for (size_t key_width : widths) {
    for (size_t n : sizes) {
      SCOPED_TRACE("key_width=" + std::to_string(key_width) +
                   " n=" + std::to_string(n));
      const IbltConfig config =
          IbltConfig::ForDifference(n, rng.NextU64(), key_width);
      const uint8_t* keys = guarded.Place(RandomBytes(&rng, n * key_width));
      Iblt per_key(config);
      for (size_t j = 0; j < n; ++j) per_key.Insert(keys + j * key_width);
      Iblt batched(config);
      batched.InsertBatch(keys, n);
      ByteWriter expected, actual;
      per_key.SerializeFixed(&expected);
      batched.SerializeFixed(&actual);
      ASSERT_EQ(actual.bytes(), expected.bytes());
      batched.EraseBatch(keys, n);
      EXPECT_TRUE(batched.IsZero());
    }
  }
}

TEST(Avx512BodyTest, ChildSketchWriterMatchesScalar) {
  if (!CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  // Children of 0-17 keys (every remainder mod 8), of more than one block,
  // and of 1,200 keys, whose counts pass 255: in a table of k cells every
  // cell holds every key.
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {64, 129, 1200});
  GuardedKeys guarded(1200 * 8);
  GuardedKeys guarded_out(4096);
  ASSERT_TRUE(guarded.ok() && guarded_out.ok());
  Rng rng(37);
  // Every cell count the register body takes, at k 1-5, then 33 cells,
  // one past it, where the writer falls back to byte updates.
  std::vector<IbltConfig> configs;
  for (int k = 1; k <= 5; ++k) {
    for (size_t cells = static_cast<size_t>(k);
         cells <= IbltCellDerivation::kRegisterCells;
         cells += static_cast<size_t>(k)) {
      IbltConfig config;
      config.cells = cells;
      config.num_hashes = k;
      configs.push_back(config);
    }
  }
  for (int k : {1, 3}) {
    IbltConfig config;
    config.cells = IbltCellDerivation::kRegisterCells + 1;
    config.num_hashes = k;
    configs.push_back(config);
  }
  for (IbltConfig& config : configs) {
    config.seed = rng.NextU64();
    ASSERT_EQ(config.SketchCheckWidth(), 2u);
    const IbltCellDerivation derivation(config);
    for (size_t n : sizes) {
      SCOPED_TRACE("k=" + std::to_string(config.num_hashes) +
                   " cells=" + std::to_string(config.PaddedCells()) +
                   " n=" + std::to_string(n));
      const uint64_t* keys = guarded.Place(RandomKeys(&rng, n));
      std::vector<uint8_t> scalar(config.SketchSize(), 0);
      derivation.WriteFixedU64Scalar(keys, n, scalar.data());
      // The vector body's sketch ends at the unreadable page, so a masked
      // store past the sketch faults.
      uint8_t* out = guarded_out.Zeroed(config.SketchSize());
      derivation.WriteFixedU64Avx512(keys, n, out);
      ASSERT_EQ(std::vector<uint8_t>(out, out + config.SketchSize()), scalar);
      if (n == 1200 && config.PaddedCells() ==
                           static_cast<size_t>(config.num_hashes)) {
        EXPECT_EQ(scalar[0], static_cast<uint8_t>(1200 % 256));
      }
    }
  }
}

TEST(Avx512BodyTest, SetFingerprintSumMatchesScalar) {
  if (!CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  GuardedKeys guarded(1000 * 8);
  ASSERT_TRUE(guarded.ok());
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {size_t{64}, size_t{1000}});
  Rng rng(29);
  for (size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const HashFamily family(rng.NextU64(), /*tag=*/7);
    const std::vector<uint64_t> elements = RandomKeys(&rng, n);
    uint64_t reference = 0;
    for (uint64_t e : elements) reference += family.HashU64(e);
    const uint64_t* at = guarded.Place(elements);
    EXPECT_EQ(HashU64SumScalar(at, n, family), reference);
    EXPECT_EQ(HashU64SumAvx512(at, n, family), reference);
    EXPECT_EQ(SetFingerprint(elements, family),
              reference + Mix64(family.seed() ^ (n * 0x51ed2701eb0aa3ddull)));
  }
}

}  // namespace
}  // namespace setrec
