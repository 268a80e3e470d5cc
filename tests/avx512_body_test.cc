// The AVX-512 bodies of the child-sketch writer's block step and of
// SetFingerprint's element sum against their scalar bodies, on random keys.
// The protocols run whichever body the CPU supports (CpuHasAvx512), so on an
// AVX-512 host this is the one place the scalar body still meets the vector
// one. Keys sit at the very end of a readable page, with an unreadable page
// after them, so a body that reads past its span faults here.

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

namespace setrec {
namespace {

// Room for `capacity` 64-bit values that end where an unreadable page
// begins.
class GuardedKeys {
 public:
  explicit GuardedKeys(size_t capacity) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    readable_ = (capacity * sizeof(uint64_t) + page - 1) / page * page;
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

  // Copies `keys` so that the last one ends at the unreadable page.
  const uint64_t* Place(const std::vector<uint64_t>& keys) {
    uint8_t* at = base_ + readable_ - keys.size() * sizeof(uint64_t);
    if (!keys.empty()) {
      std::memcpy(at, keys.data(), keys.size() * sizeof(uint64_t));
    }
    return reinterpret_cast<const uint64_t*>(at);
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

TEST(Avx512BodyTest, BlockStepMatchesScalar) {
  if (!CpuHasAvx512()) GTEST_SKIP() << "this CPU lacks AVX-512F/DQ";
  constexpr size_t kBlock = IbltCellDerivation::kBlockKeys;
  GuardedKeys guarded(kBlock);
  ASSERT_TRUE(guarded.ok());
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {kBlock - 1, kBlock, kBlock + 1});
  Rng rng(23);
  for (int k : {1, 2, 3, 4, 5, 8, 11}) {
    for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{35},
                         size_t{403}, size_t{65537}, (size_t{1} << 21) + 1}) {
      IbltConfig config;
      config.cells = width * static_cast<size_t>(k);
      config.num_hashes = k;
      config.seed = rng.NextU64();
      const IbltCellDerivation derivation(config);
      for (size_t n : sizes) {
        SCOPED_TRACE("k=" + std::to_string(k) + " m/k=" +
                     std::to_string(width) + " n=" + std::to_string(n));
        const std::vector<uint64_t> keys = RandomKeys(&rng, n);
        // A child of more than one block runs a full block, then its tail.
        for (size_t first = 0; first < n; first += kBlock) {
          const size_t block = std::min(n - first, kBlock);
          const std::vector<uint64_t> block_keys(
              keys.data() + first, keys.data() + first + block);
          const uint64_t* at = guarded.Place(block_keys);
          for (int group = 0; group < k;
               group += IbltCellDerivation::kBlockHashes) {
            const int count =
                std::min(k - group, IbltCellDerivation::kBlockHashes);
            IbltCellDerivation::BlockHashes scalar;
            IbltCellDerivation::BlockHashes vector;
            derivation.BlockStepScalar(at, block, group, count, &scalar);
            derivation.BlockStepAvx512(at, block, group, count, &vector);
            for (size_t j = 0; j < block; ++j) {
              ASSERT_EQ(vector.checks[j], scalar.checks[j]) << "key " << j;
              for (int i = 0; i < count; ++i) {
                ASSERT_EQ(vector.cells[i][j], scalar.cells[i][j])
                    << "key " << j << " hash " << group + i;
                ASSERT_LT(scalar.cells[i][j],
                          static_cast<size_t>(group + i + 1) * width);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Avx512BodyTest, SetFingerprintSumMatchesScalar) {
  if (!CpuHasAvx512()) GTEST_SKIP() << "this CPU lacks AVX-512F/DQ";
  GuardedKeys guarded(1000);
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
