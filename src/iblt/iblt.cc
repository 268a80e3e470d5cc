#include "iblt/iblt.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <thread>

#include "hashing/hash.h"
#include "hashing/random.h"

namespace setrec {

namespace {

// ---------------------------------------------------------------------------
// Lane XOR. Two shapes cover every key XOR the table does: dst[i] ^= src[i]
// over n lanes (Subtract/Add, peel removal), and dst ^= `width` raw key
// bytes (cell updates).
// ---------------------------------------------------------------------------

// LINT(alloc-free) — these kernels run per peeled key inside the decode
// loop and back the decode_allocs_warm == 0 benchmark claim; setrec_lint
// rejects any allocating call landing between here and LINT(end).
void XorLanesScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

// Full lanes load word-wide (the memcpy compiles to one unaligned move);
// the sub-word tail lands in the zero-padded final lane.
void XorKeyScalar(uint64_t* dst, const uint8_t* key, size_t width) {
  size_t full = width / 8;
  size_t rem = width % 8;
  for (size_t l = 0; l < full; ++l) {
    uint64_t lane;
    std::memcpy(&lane, key + 8 * l, 8);
    dst[l] ^= lane;
  }
  if (rem != 0) {
    uint64_t lane = 0;
    std::memcpy(&lane, key + 8 * full, rem);
    dst[full] ^= lane;
  }
}
// LINT(end)

// Sizing constants: cells = max(kMinCells, kCellsPerKey * d + 2k) for a
// difference of d keys under k hashes. Theorem 2.1 promises decode w.h.p.
// with m = O(d); k=4 peeling succeeds asymptotically above ~1.3 cells/key,
// but small tables need slack, hence 2.0 cells/key plus the additive 2k and
// the 16-cell floor. bench_iblt (experiment E3) calibrates this empirically.
constexpr double kCellsPerKey = 2.0;
constexpr size_t kMinCells = 16;

}  // namespace

int Iblt::sharded_workers_for_test = 0;

IbltConfig IbltConfig::ForDifference(size_t diff, uint64_t seed,
                                     size_t key_width, int num_hashes) {
  IbltConfig config;
  config.cells = std::max(
      kMinCells, static_cast<size_t>(kCellsPerKey * static_cast<double>(diff)) +
                     2 * static_cast<size_t>(num_hashes));
  config.num_hashes = num_hashes;
  config.key_width = key_width;
  config.seed = seed;
  return config;
}

size_t IbltConfig::PaddedCells() const {
  size_t k = static_cast<size_t>(num_hashes);
  return (cells + k - 1) / k * k;
}

size_t IbltConfig::FixedSerializedSize() const {
  return PaddedCells() * FixedRecordWidth(key_width);
}

namespace {

// ⌊e^j⌋ for j = 0..29, the integer thresholds of SketchCheckWidthFor.
constexpr uint64_t kFloorExp[] = {
    1,           2,           7,           20,          54,
    148,         403,         1096,        2980,        8103,
    22026,       59874,       162754,      442413,      1202604,
    3269017,     8886110,     24154952,    65659969,    178482300,
    485165195,   1318815734,  3584912846,  9744803446,  26489122129,
    72004899337, 195729609428, 532048240601, 1446257064291,
    3931334297144};

// True when km-peeler's checksum for n keys under k hashes, ⌈(k−2)·ln n +
// k⌉ bits, fits in `bits`. For k > 2 that is (k−2)·ln n <= bits − k, i.e.
// n^(k−2) <= e^(bits−k); n^(k−2) is an integer and e^j is 1 at j = 0 and
// irrational above, so the bound is n^(k−2) <= ⌊e^(bits−k)⌋.
bool KmCheckFits(size_t n, int k, int bits) {
  if (k <= 2) return k <= bits;  // (k−2)·ln n <= 0.
  const int j = bits - k;
  if (j < 0) return false;  // n^(k−2) >= 1 > e^j.
  const __uint128_t limit = kFloorExp[j];
  __uint128_t power = 1;  // At most limit, so power * n never wraps.
  for (int i = 0; i < k - 2; ++i) {
    power *= n;
    if (power > limit) return false;
  }
  return true;
}

}  // namespace

size_t IbltConfig::SketchCheckWidthFor(size_t n, int num_hashes) {
  static_assert(std::size(kFloorExp) == 32 - 3 + 1,
                "thresholds cover bits - k for 32 bits at k >= 3");
  n = std::max<size_t>(n, 1);
  if (KmCheckFits(n, num_hashes, 16)) return 2;
  if (KmCheckFits(n, num_hashes, 32)) return 4;
  return 8;
}

size_t IbltConfig::SketchCheckWidth() const {
  return SketchCheckWidthFor(PaddedCells() / 2, num_hashes);
}

size_t IbltConfig::SketchSize() const {
  return PaddedCells() * (1 + SketchCheckWidth() + key_width);
}

IbltCellDerivation::IbltCellDerivation(const IbltConfig& config)
    : bucket_(config.seed, /*tag=*/0x6275636bull),  // "buck"
      check_(config.seed, /*tag=*/0x6368656bull),   // "chek"
      key_width_(config.key_width),
      cells_per_hash_(config.PaddedCells() /
                      static_cast<size_t>(config.num_hashes)),
      mod_magic_(ModReciprocal(cells_per_hash_)),
      num_hashes_(config.num_hashes),
      sketch_check_width_(static_cast<int>(config.SketchCheckWidth())) {}

void IbltCellDerivation::BlockStepScalar(const uint8_t* keys, size_t n,
                                         int first, int count,
                                         BlockHashes* out) const {
  // The stores into `out` may alias a member read through `this`; a local
  // copy keeps the derivation in registers (see the class comment).
  const IbltCellDerivation derivation = *this;
  const size_t w = key_width_;
  // LINT(alloc-free) — the reference block step, and the one hosts
  // without AVX-512 run for every batch and child sketch.
  for (size_t j = 0; j < n; ++j) {
    const KeyHashes h = derivation.Hash(keys + j * w);
    out->checks[j] = h.check;
    for (int i = 0; i < count; ++i) {
      out->cells[i][j] = derivation.Cell(h.bucket, first + i);
    }
  }
  // LINT(end)
}

namespace {

// The writer for a checksum of sizeof(Check) bytes, on either block step.
// Every cell update below is a raw byte store, which may alias any object,
// so the update loop reads only locals and the block step's output, never
// the derivation.
template <typename Check>
void WriteSketchU64(const IbltCellDerivation& derivation, const uint64_t* keys,
                    size_t n, size_t cells, bool avx512, uint8_t* out) {
  constexpr size_t kBlockKeys = IbltCellDerivation::kBlockKeys;
  constexpr int kBlockHashes = IbltCellDerivation::kBlockHashes;
  const int k = derivation.num_hashes();
  uint8_t* const counts = out;
  uint8_t* const checks = out + cells;
  uint8_t* const lanes = checks + cells * sizeof(Check);
  IbltCellDerivation::BlockHashes hashes;
  // LINT(alloc-free) — writes every child sketch the set-of-sets protocols
  // pack, on both parties, at every attempt and level.
  for (size_t first = 0; first < n; first += kBlockKeys) {
    const size_t block = std::min(n - first, kBlockKeys);
    const uint64_t* block_keys = keys + first;
    const auto* block_bytes = reinterpret_cast<const uint8_t*>(block_keys);
    for (int group = 0; group < k; group += kBlockHashes) {
      const int count = std::min(k - group, kBlockHashes);
      if (avx512) {
        derivation.BlockStepAvx512(block_bytes, block, group, count, &hashes);
      } else {
        derivation.BlockStepScalar(block_bytes, block, group, count, &hashes);
      }
      // Partition by partition, as Iblt::ApplyBatch does.
      for (int i = 0; i < count; ++i) {
        const size_t* block_cells = hashes.cells[i];
        for (size_t j = 0; j < block; ++j) {
          const size_t cell = block_cells[j];
          uint8_t* check_at = checks + cell * sizeof(Check);
          uint8_t* lane_at = lanes + cell * 8;
          Check check;
          uint64_t lane;
          std::memcpy(&check, check_at, sizeof(Check));
          std::memcpy(&lane, lane_at, 8);
          counts[cell] = static_cast<uint8_t>(counts[cell] + 1);
          check ^= static_cast<Check>(hashes.checks[j]);
          lane ^= block_keys[j];
          std::memcpy(check_at, &check, sizeof(Check));
          std::memcpy(lane_at, &lane, 8);
        }
      }
    }
  }
  // LINT(end)
}

void WriteSketch(const IbltCellDerivation& derivation, const uint64_t* keys,
                 size_t n, size_t cells, size_t check_width, bool avx512,
                 uint8_t* out) {
  switch (check_width) {
    case 2:
      WriteSketchU64<uint16_t>(derivation, keys, n, cells, avx512, out);
      return;
    case 4:
      WriteSketchU64<uint32_t>(derivation, keys, n, cells, avx512, out);
      return;
    default:
      WriteSketchU64<uint64_t>(derivation, keys, n, cells, avx512, out);
      return;
  }
}

}  // namespace

void IbltCellDerivation::WriteFixedU64(const uint64_t* keys, size_t n,
                                       uint8_t* out) const {
  if (CpuHasAvx512()) {
    WriteFixedU64Avx512(keys, n, out);
  } else {
    WriteFixedU64Scalar(keys, n, out);
  }
}

void IbltCellDerivation::WriteFixedU64Scalar(const uint64_t* keys, size_t n,
                                             uint8_t* out) const {
  assert(key_width_ == 8);
  const size_t cells = cells_per_hash_ * static_cast<size_t>(num_hashes_);
  WriteSketch(*this, keys, n, cells, static_cast<size_t>(sketch_check_width_),
              /*avx512=*/false, out);
}

void IbltCellDerivation::WriteFixedU64Avx512(const uint64_t* keys, size_t n,
                                             uint8_t* out) const {
  assert(key_width_ == 8);
  const size_t cells = cells_per_hash_ * static_cast<size_t>(num_hashes_);
  if (cells <= kRegisterCells && num_hashes_ <= kBlockHashes &&
      sketch_check_width_ == 2) {
    WriteRegistersAvx512(keys, n, out);
    return;
  }
  WriteSketch(*this, keys, n, cells, static_cast<size_t>(sketch_check_width_),
              /*avx512=*/true, out);
}

Iblt::Iblt(const IbltConfig& config)
    : config_(config),
      cells_(config.PaddedCells()),
      lanes_per_key_((config.key_width + 7) / 8),
      derivation_(config),
      meta_(cells_),
      key_lanes_(cells_ * lanes_per_key_, 0) {}

void Iblt::Insert(const uint8_t* key) { Update(key, +1); }
void Iblt::Insert(const std::vector<uint8_t>& key) {
  assert(key.size() == config_.key_width);
  Update(key.data(), +1);
}
void Iblt::InsertU64(uint64_t key) {
  assert(config_.key_width == 8);
  Update(reinterpret_cast<const uint8_t*>(&key), +1);
}

void Iblt::Erase(const uint8_t* key) { Update(key, -1); }
void Iblt::Erase(const std::vector<uint8_t>& key) {
  assert(key.size() == config_.key_width);
  Update(key.data(), -1);
}
void Iblt::EraseU64(uint64_t key) {
  assert(config_.key_width == 8);
  Update(reinterpret_cast<const uint8_t*>(&key), -1);
}

void Iblt::InsertBatch(const uint64_t* keys, size_t n) {
  assert(config_.key_width == 8);
  ApplyBatch(reinterpret_cast<const uint8_t*>(keys), n, +1);
}
void Iblt::InsertBatch(const std::vector<uint64_t>& keys) {
  InsertBatch(keys.data(), keys.size());
}
void Iblt::InsertBatch(const uint8_t* keys, size_t n) {
  ApplyBatch(keys, n, +1);
}
void Iblt::EraseBatch(const uint64_t* keys, size_t n) {
  assert(config_.key_width == 8);
  ApplyBatch(reinterpret_cast<const uint8_t*>(keys), n, -1);
}
void Iblt::EraseBatch(const std::vector<uint64_t>& keys) {
  EraseBatch(keys.data(), keys.size());
}
void Iblt::EraseBatch(const uint8_t* keys, size_t n) {
  ApplyBatch(keys, n, -1);
}

// The cell updates below read the derivation, the key width and the arena
// pointers from locals: a store into the cells may alias a member read
// through `this` (see IbltCellDerivation).
void Iblt::Update(const uint8_t* key, int32_t delta) {
  const IbltCellDerivation derivation = derivation_;
  const size_t w = config_.key_width;
  const size_t lanes_per_key = lanes_per_key_;
  IbltCellMeta* meta = meta_.data();
  uint64_t* lanes = key_lanes_.data();
  const KeyHashes h = derivation.Hash(key);
  for (int i = 0; i < derivation.num_hashes(); ++i) {
    const size_t cell = derivation.Cell(h.bucket, i);
    meta[cell].count += delta;
    meta[cell].check ^= h.check;
    XorKeyScalar(lanes + cell * lanes_per_key, key, w);
  }
}

void Iblt::ApplyPartitionRange(const KeyHashes* hashes,
                               const uint64_t* u64_keys,
                               const uint8_t* byte_keys, size_t n,
                               int32_t delta, int first_index,
                               int index_step) {
  const IbltCellDerivation derivation = derivation_;
  const size_t w = config_.key_width;
  const size_t lanes_per_key = lanes_per_key_;
  IbltCellMeta* meta = meta_.data();
  uint64_t* lanes = key_lanes_.data();
  for (int i = first_index; i < derivation.num_hashes(); i += index_step) {
    if (u64_keys != nullptr) {
      for (size_t j = 0; j < n; ++j) {
        const size_t cell = derivation.Cell(hashes[j].bucket, i);
        meta[cell].count += delta;
        meta[cell].check ^= hashes[j].check;
        lanes[cell] ^= u64_keys[j];
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        const size_t cell = derivation.Cell(hashes[j].bucket, i);
        meta[cell].count += delta;
        meta[cell].check ^= hashes[j].check;
        XorKeyScalar(lanes + cell * lanes_per_key, byte_keys + j * w, w);
      }
    }
  }
}

namespace {

/// Resolved worker count for a sharded pass over partitions of up to
/// `max_partitions` per table, honoring the runtime options and the
/// deterministic test hook.
int ShardedWorkerCount(int max_partitions, const IbltBatchOptions& options) {
  int cap = options.max_workers > 0
                ? options.max_workers
                : static_cast<int>(
                      std::max<unsigned>(1, std::thread::hardware_concurrency()));
  if (Iblt::sharded_workers_for_test > 0) {
    cap = Iblt::sharded_workers_for_test;
  }
  return std::min(max_partitions, cap);
}

}  // namespace

void Iblt::ApplyOps(const ApplyOp* ops, size_t count,
                    const IbltBatchOptions& options, ApplyScratch* scratch) {
  size_t total = 0;
  int max_hashes = 1;
  for (size_t i = 0; i < count; ++i) {
    total += ops[i].n;
    max_hashes = std::max(max_hashes, ops[i].table->config_.num_hashes);
  }
  if (total == 0) return;

  const int workers = total >= options.sharded_min_keys
                          ? ShardedWorkerCount(max_hashes, options)
                          : 1;
  if (workers <= 1) {
    // Serial pass: stream op by op through the regular batch path, whose
    // small-batch hashes live in a stack buffer — the same cache-resident
    // footprint as issuing the ops directly. Staging every hash of a large
    // coalesced pass up front would trade that locality for nothing when
    // there is no worker to share the staging with.
    for (size_t i = 0; i < count; ++i) {
      const ApplyOp& op = ops[i];
      op.table->ApplyBatch(
          op.u64_keys != nullptr
              ? reinterpret_cast<const uint8_t*>(op.u64_keys)
              : op.byte_keys,
          op.n, op.delta);
    }
    return;
  }

  // Sharded pass: hash every key of every op once into the shared staging
  // area, then let worker t apply partition indices {t, t+W, ...} of every
  // op. Each (table, partition) cell range has exactly one writer and ops
  // on the same table apply in op order — bit-identical to the serial pass
  // regardless of W. Two ops naming the same table are fine for the same
  // reason.
  scratch->offsets.clear();
  size_t offset = 0;
  for (size_t i = 0; i < count; ++i) {
    scratch->offsets.push_back(offset);
    offset += ops[i].n;
  }
  scratch->hashes.resize(total);
  for (size_t i = 0; i < count; ++i) {
    const ApplyOp& op = ops[i];
    KeyHashes* out = scratch->hashes.data() + scratch->offsets[i];
    const IbltCellDerivation derivation = op.table->derivation_;
    if (op.u64_keys != nullptr) {
      for (size_t j = 0; j < op.n; ++j) {
        out[j] = derivation.HashU64(op.u64_keys[j]);
      }
    } else {
      const size_t w = op.table->config_.key_width;
      for (size_t j = 0; j < op.n; ++j) {
        out[j] = derivation.Hash(op.byte_keys + j * w);
      }
    }
  }
  auto run_slice = [&](int first_index) {
    for (size_t i = 0; i < count; ++i) {
      const ApplyOp& op = ops[i];
      op.table->ApplyPartitionRange(scratch->hashes.data() +
                                        scratch->offsets[i],
                                    op.u64_keys, op.byte_keys, op.n, op.delta,
                                    first_index, workers);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) {
    threads.emplace_back(run_slice, t);
  }
  run_slice(0);
  for (std::thread& t : threads) t.join();
}

void Iblt::ApplyBatch(const uint8_t* keys, size_t n, int32_t delta) {
  constexpr size_t kBlockKeys = IbltCellDerivation::kBlockKeys;
  constexpr int kBlockHashes = IbltCellDerivation::kBlockHashes;
  const IbltCellDerivation derivation = derivation_;
  const size_t w = config_.key_width;
  const size_t lanes_per_key = lanes_per_key_;
  const int k = derivation.num_hashes();
  const bool avx512 = CpuHasAvx512();
  IbltCellMeta* meta = meta_.data();
  uint64_t* lanes = key_lanes_.data();
  IbltCellDerivation::BlockHashes hashes;
  // LINT(alloc-free) — every InsertBatch/EraseBatch: outer tables of child
  // blobs, star and fingerprint tables, strata and set-reconciler tables.
  for (size_t first = 0; first < n; first += kBlockKeys) {
    const size_t block = std::min(n - first, kBlockKeys);
    const uint8_t* block_keys = keys + first * w;
    for (int group = 0; group < k; group += kBlockHashes) {
      const int count = std::min(k - group, kBlockHashes);
      if (avx512) {
        derivation.BlockStepAvx512(block_keys, block, group, count, &hashes);
      } else {
        derivation.BlockStepScalar(block_keys, block, group, count, &hashes);
      }
      if (avx512 && w != 8) {
        UpdateCellsAvx512(hashes, count, block_keys, block, w, lanes_per_key,
                          delta, meta, lanes);
        continue;
      }
      // Partition by partition: each pass stays inside one m/k-cell window.
      for (int i = 0; i < count; ++i) {
        const size_t* block_cells = hashes.cells[i];
        for (size_t j = 0; j < block; ++j) {
          const size_t cell = block_cells[j];
          meta[cell].count += delta;
          meta[cell].check ^= hashes.checks[j];
          if (w == 8) {
            uint64_t key;
            std::memcpy(&key, block_keys + 8 * j, 8);
            lanes[cell] ^= key;
          } else {
            XorKeyScalar(lanes + cell * lanes_per_key, block_keys + j * w, w);
          }
        }
      }
    }
  }
  // LINT(end)
}

Status Iblt::Subtract(const Iblt& other) {
  if (!(config_ == other.config_)) {
    return InvalidArgument("IBLT subtract: mismatched configs");
  }
  for (size_t i = 0; i < cells_; ++i) {
    meta_[i].count -= other.meta_[i].count;
    meta_[i].check ^= other.meta_[i].check;
  }
  XorLanesScalar(key_lanes_.data(), other.key_lanes_.data(),
                 key_lanes_.size());
  return Status::Ok();
}

Status Iblt::Add(const Iblt& other) {
  if (!(config_ == other.config_)) {
    return InvalidArgument("IBLT add: mismatched configs");
  }
  for (size_t i = 0; i < cells_; ++i) {
    meta_[i].count += other.meta_[i].count;
    meta_[i].check ^= other.meta_[i].check;
  }
  XorLanesScalar(key_lanes_.data(), other.key_lanes_.data(),
                 key_lanes_.size());
  return Status::Ok();
}

bool Iblt::CellIsZero(size_t cell) const {
  if (meta_[cell].count != 0 || meta_[cell].check != 0) return false;
  const uint64_t* lanes = CellLanes(cell);
  for (size_t l = 0; l < lanes_per_key_; ++l) {
    if (lanes[l] != 0) return false;
  }
  return true;
}

void Iblt::LoadInto(DecodeScratch* scratch) const {
  // assign() reuses capacity (as does the peel's output arena), so a warm
  // scratch makes the whole decode — byte keys included — allocation-free.
  scratch->meta.assign(meta_.begin(), meta_.end());
  scratch->key_lanes.assign(key_lanes_.begin(), key_lanes_.end());
}

bool Iblt::Peel(const IbltCellDerivation& table_derivation, size_t cells,
                size_t lanes_per_key, uint64_t check_mask,
                DecodeScratch* scratch, IbltDecodeResult64* out_u64) {
  assert(scratch->meta.size() == cells &&
         scratch->key_lanes.size() == cells * lanes_per_key);
  const IbltCellDerivation derivation = table_derivation;
  const int k = derivation.num_hashes();

  scratch->queued.assign(cells, 0);
  scratch->queue.clear();
  scratch->out_lanes.clear();
  scratch->pos_offsets.clear();
  scratch->neg_offsets.clear();
  IbltCellMeta* meta = scratch->meta.data();
  uint64_t* lanes = scratch->key_lanes.data();

  // Seed the queue with pure-cell *candidates* (count == ±1). Checksum
  // verification is deferred to pop time, where the key must be hashed
  // anyway to derive its cells for removal — so each popped candidate costs
  // exactly one (bucket, check) hash pair, shared between the purity check
  // and the peel, and stale revisits of unchanged cells never rehash.
  for (size_t i = 0; i < cells; ++i) {
    if (meta[i].count == 1 || meta[i].count == -1) {
      scratch->queue.push_back(static_cast<uint32_t>(i));
      scratch->queued[i] = 1;
    }
  }

  // A correct drain extracts at most one key per (key, cell) incidence;
  // cap iterations so checksum-collision cascades cannot loop forever.
  size_t budget = 4 * cells + 64;
  size_t head = 0;
  while (head < scratch->queue.size() && budget-- > 0) {
    const size_t cell = scratch->queue[head++];
    scratch->queued[cell] = 0;
    const int64_t count = meta[cell].count;
    if (count != 1 && count != -1) continue;  // Stale queue entry.
    const uint8_t* cell_key =
        reinterpret_cast<const uint8_t*>(lanes + cell * lanes_per_key);
    const KeyHashes h = derivation.Hash(cell_key);
    const uint64_t check = h.check & check_mask;
    if (meta[cell].check != check) continue;  // Count ±1 but not pure.
    const int64_t sign = count;

    if (out_u64 != nullptr) {
      // 8-byte keys: the key is a single lane; no staging copy needed.
      const uint64_t key64 = lanes[cell];
      (sign > 0 ? out_u64->positive : out_u64->negative).push_back(key64);
      for (int i = 0; i < k; ++i) {
        const size_t t = derivation.Cell(h.bucket, i);
        meta[t].count -= sign;
        meta[t].check ^= check;
        lanes[t] ^= key64;
        if ((meta[t].count == 1 || meta[t].count == -1) &&
            !scratch->queued[t]) {
          scratch->queue.push_back(static_cast<uint32_t>(t));
          scratch->queued[t] = 1;
        }
      }
      continue;
    }

    // Stage the key into the output arena: the copy both IS the decoded
    // entry (the returned views point at it) and serves as the stable
    // source for the removal XOR below (the home cell's own lanes change
    // mid-removal). Appending may grow the arena, so take the pointer
    // afterwards; earlier entries are only re-referenced by offset once the
    // peel is done (BuildViews).
    const size_t off = scratch->out_lanes.size();
    scratch->out_lanes.insert(scratch->out_lanes.end(),
                              lanes + cell * lanes_per_key,
                              lanes + (cell + 1) * lanes_per_key);
    (sign > 0 ? scratch->pos_offsets : scratch->neg_offsets).push_back(off);
    const uint64_t* staged = scratch->out_lanes.data() + off;

    // Remove the key from all of its cells (including this one), queueing
    // any cell the removal leaves as a fresh pure candidate.
    for (int i = 0; i < k; ++i) {
      const size_t t = derivation.Cell(h.bucket, i);
      meta[t].count -= sign;
      meta[t].check ^= check;
      XorLanesScalar(lanes + t * lanes_per_key, staged, lanes_per_key);
      if ((meta[t].count == 1 || meta[t].count == -1) && !scratch->queued[t]) {
        scratch->queue.push_back(static_cast<uint32_t>(t));
        scratch->queued[t] = 1;
      }
    }
  }

  // Complete iff the work table drained to all-zero cells.
  for (size_t i = 0; i < cells; ++i) {
    if (meta[i].count != 0 || meta[i].check != 0) return false;
  }
  for (size_t i = 0; i < cells * lanes_per_key; ++i) {
    if (lanes[i] != 0) return false;
  }
  return true;
}

IbltDecodeView Iblt::BuildViews(DecodeScratch* scratch) const {
  const size_t w = config_.key_width;
  const uint8_t* base =
      reinterpret_cast<const uint8_t*>(scratch->out_lanes.data());
  scratch->pos_views.clear();
  scratch->neg_views.clear();
  for (size_t off : scratch->pos_offsets) {
    scratch->pos_views.push_back(IbltKeyView{base + off * 8, w});
  }
  for (size_t off : scratch->neg_offsets) {
    scratch->neg_views.push_back(IbltKeyView{base + off * 8, w});
  }
  IbltDecodeView view;
  view.positive = {scratch->pos_views.data(), scratch->pos_views.size()};
  view.negative = {scratch->neg_views.data(), scratch->neg_views.size()};
  return view;
}

IbltDecodeView64 Iblt::GatherU64(DecodeScratch* scratch) {
  // Each peeled key is exactly one lane of the output arena, so gathering
  // by offset costs O(d) moves and no allocations once the scratch is warm.
  scratch->pos_u64.clear();
  scratch->neg_u64.clear();
  for (size_t off : scratch->pos_offsets) {
    scratch->pos_u64.push_back(scratch->out_lanes[off]);
  }
  for (size_t off : scratch->neg_offsets) {
    scratch->neg_u64.push_back(scratch->out_lanes[off]);
  }
  return IbltDecodeView64{
      std::span<uint64_t>(scratch->pos_u64.data(), scratch->pos_u64.size()),
      std::span<uint64_t>(scratch->neg_u64.data(), scratch->neg_u64.size())};
}

IbltDecodeResult IbltDecodeView::Materialize() const {
  IbltDecodeResult out;
  out.positive.reserve(positive.size());
  for (const IbltKeyView& v : positive) out.positive.push_back(v.ToVector());
  out.negative.reserve(negative.size());
  for (const IbltKeyView& v : negative) out.negative.push_back(v.ToVector());
  return out;
}

IbltPartialDecodeView Iblt::DecodePartial(DecodeScratch* scratch) const {
  IbltPartialDecodeView out;
  LoadInto(scratch);
  out.complete = Peel(derivation_, cells_, lanes_per_key_, kFullCheckMask,
                      scratch, nullptr);
  out.entries = BuildViews(scratch);
  return out;
}

IbltPartialDecode Iblt::DecodePartial() const {
  DecodeScratch scratch;
  IbltPartialDecodeView view = DecodePartial(&scratch);
  return IbltPartialDecode{view.entries.Materialize(), view.complete};
}

Result<IbltDecodeView> Iblt::Decode(DecodeScratch* scratch) const {
  LoadInto(scratch);
  if (!Peel(derivation_, cells_, lanes_per_key_, kFullCheckMask, scratch,
            nullptr)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return BuildViews(scratch);
}

Result<IbltDecodeResult> Iblt::Decode() const {
  DecodeScratch scratch;
  Result<IbltDecodeView> view = Decode(&scratch);
  if (!view.ok()) return view.status();
  return view.value().Materialize();
}

Result<IbltDecodeResult64> Iblt::DecodeU64(DecodeScratch* scratch) const {
  assert(config_.key_width == 8);
  IbltDecodeResult64 out;
  LoadInto(scratch);
  if (!Peel(derivation_, cells_, lanes_per_key_, kFullCheckMask, scratch,
            &out)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return out;
}

Result<IbltDecodeResult64> Iblt::DecodeU64() const {
  DecodeScratch scratch;
  return DecodeU64(&scratch);
}

Result<IbltDecodeView64> Iblt::DecodeU64View(DecodeScratch* scratch) const {
  assert(config_.key_width == 8);
  LoadInto(scratch);
  if (!Peel(derivation_, cells_, lanes_per_key_, kFullCheckMask, scratch,
            nullptr)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return GatherU64(scratch);
}

bool Iblt::IsZero() const {
  for (size_t i = 0; i < cells_; ++i) {
    if (!CellIsZero(i)) return false;
  }
  return true;
}

namespace {

// How many of the first `records` cells of the child sketches at `a` and
// `b` (the child-sketch form over `cells` cells, a checksum of
// sizeof(Check) bytes) differ in count, checksum or key.
template <typename Check>
size_t SketchDistance(const uint8_t* a, const uint8_t* b, size_t cells,
                      size_t records) {
  const uint8_t* checks_a = a + cells;
  const uint8_t* checks_b = b + cells;
  const uint8_t* keys_a = checks_a + cells * sizeof(Check);
  const uint8_t* keys_b = checks_b + cells * sizeof(Check);
  size_t distance = 0;
  // LINT(alloc-free) — runs for every (positive, partner) pair Bob ranks,
  // at every attempt and level.
  for (size_t r = 0; r < records; ++r) {
    Check check_a;
    Check check_b;
    uint64_t key_a;
    uint64_t key_b;
    std::memcpy(&check_a, checks_a + r * sizeof(Check), sizeof(Check));
    std::memcpy(&check_b, checks_b + r * sizeof(Check), sizeof(Check));
    std::memcpy(&key_a, keys_a + 8 * r, 8);
    std::memcpy(&key_b, keys_b + 8 * r, 8);
    const uint64_t diff = static_cast<uint64_t>(a[r] ^ b[r]) |
                          static_cast<uint64_t>(check_a ^ check_b) |
                          (key_a ^ key_b);
    distance += diff != 0;
  }
  // LINT(end)
  return distance;
}

}  // namespace

void Iblt::RankFixed(const IbltConfig& config, IbltKeyView target,
                     std::span<const IbltKeyView> candidates,
                     std::vector<IbltFixedRank>* order) {
  assert(config.key_width == 8);
  assert(target.size >= config.SketchSize());
  const size_t cells = config.PaddedCells();
  const size_t records = cells / static_cast<size_t>(config.num_hashes);
  const size_t check_width = config.SketchCheckWidth();
  order->clear();
  for (size_t c = 0; c < candidates.size(); ++c) {
    assert(candidates[c].size >= config.SketchSize());
    const uint8_t* a = target.data;
    const uint8_t* b = candidates[c].data;
    const size_t distance =
        check_width == 2   ? SketchDistance<uint16_t>(a, b, cells, records)
        : check_width == 4 ? SketchDistance<uint32_t>(a, b, cells, records)
                           : SketchDistance<uint64_t>(a, b, cells, records);
    order->push_back({distance, c});
  }
  std::sort(order->begin(), order->end());
}

}  // namespace setrec
