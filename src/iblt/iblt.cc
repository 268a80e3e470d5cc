#include "iblt/iblt.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

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

// The fixed-form record of one cell (SerializeFixed): 4-byte count, 8-byte
// checksum, key_width key bytes.
constexpr size_t FixedRecordWidth(size_t key_width) { return 12 + key_width; }

// Zigzag encoding for signed counts in the compact serialization.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Gathers a byte-mode peel of 8-byte keys into the scratch's u64 side
/// vectors and returns the view over them. Each peeled key is exactly one
/// lane of the output arena, so gathering by offset costs O(d) moves and no
/// allocations once the scratch is warm.
IbltDecodeView64 GatherU64(DecodeScratch* scratch) {
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

}  // namespace

int Iblt::sharded_workers_for_test = 0;
IbltBatchOptions Iblt::batch_options_;

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

IbltCellDerivation::IbltCellDerivation(const IbltConfig& config)
    : bucket_(config.seed, /*tag=*/0x6275636bull),  // "buck"
      check_(config.seed, /*tag=*/0x6368656bull),   // "chek"
      key_width_(config.key_width),
      cells_per_hash_(config.PaddedCells() /
                      static_cast<size_t>(config.num_hashes)),
      mod_magic_(cells_per_hash_ > 1
                     ? ~0ull / cells_per_hash_ +
                           (~0ull % cells_per_hash_ == cells_per_hash_ - 1)
                     : 0),
      num_hashes_(config.num_hashes) {}

void IbltCellDerivation::WriteFixedU64(const uint64_t* keys, size_t n,
                                       uint8_t* out) const {
  assert(key_width_ == 8);
  // Every store below is a raw byte store, which may alias any object: the
  // derivation is read from a local copy, whose address never escapes.
  const IbltCellDerivation derivation = *this;
  const int k = derivation.num_hashes();
  constexpr size_t kRecord = FixedRecordWidth(8);
  KeyHashes hashes[Iblt::kSmallBatchMaxKeys];
  // LINT(alloc-free) — writes every child sketch the set-of-sets protocols
  // pack, on both parties, at every attempt and level.
  for (size_t first = 0; first < n; first += Iblt::kSmallBatchMaxKeys) {
    const size_t block = std::min(n - first, Iblt::kSmallBatchMaxKeys);
    const uint64_t* block_keys = keys + first;
    for (size_t j = 0; j < block; ++j) {
      hashes[j] = derivation.HashU64(block_keys[j]);
    }
    // Partition by partition, as ApplyPartitionRange does.
    for (int i = 0; i < k; ++i) {
      for (size_t j = 0; j < block; ++j) {
        uint8_t* record = out + derivation.Cell(hashes[j].bucket, i) * kRecord;
        uint32_t count;
        uint64_t check;
        uint64_t lane;
        std::memcpy(&count, record, 4);
        std::memcpy(&check, record + 4, 8);
        std::memcpy(&lane, record + 12, 8);
        count += 1;
        check ^= hashes[j].check;
        lane ^= block_keys[j];
        std::memcpy(record, &count, 4);
        std::memcpy(record + 4, &check, 8);
        std::memcpy(record + 12, &lane, 8);
      }
    }
  }
  // LINT(end)
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
  ApplyBatchU64(keys, n, +1, batch_options_);
}
void Iblt::InsertBatch(const std::vector<uint64_t>& keys) {
  ApplyBatchU64(keys.data(), keys.size(), +1, batch_options_);
}
void Iblt::InsertBatch(const uint8_t* keys, size_t n) {
  ApplyBatchBytes(keys, n, +1, batch_options_);
}
void Iblt::EraseBatch(const uint64_t* keys, size_t n) {
  ApplyBatchU64(keys, n, -1, batch_options_);
}
void Iblt::EraseBatch(const std::vector<uint64_t>& keys) {
  ApplyBatchU64(keys.data(), keys.size(), -1, batch_options_);
}
void Iblt::EraseBatch(const uint8_t* keys, size_t n) {
  ApplyBatchBytes(keys, n, -1, batch_options_);
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

void Iblt::ApplyHashedBatch(const KeyHashes* hashes, const uint64_t* u64_keys,
                            const uint8_t* byte_keys, size_t n, int32_t delta,
                            const IbltBatchOptions& options) {
  const int k = config_.num_hashes;
  if (n >= options.sharded_min_keys && k > 1) {
    // Partitions are disjoint cell ranges: shard them across threads with no
    // synchronization. The result is identical to the serial order.
    int workers = ShardedWorkerCount(k, options);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers - 1));
    for (int t = 1; t < workers; ++t) {
      threads.emplace_back([=, this] {
        ApplyPartitionRange(hashes, u64_keys, byte_keys, n, delta, t, workers);
      });
    }
    ApplyPartitionRange(hashes, u64_keys, byte_keys, n, delta, 0, workers);
    for (std::thread& t : threads) t.join();
    return;
  }
  ApplyPartitionRange(hashes, u64_keys, byte_keys, n, delta, 0, 1);
}

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
      if (op.u64_keys != nullptr) {
        op.table->ApplyBatchU64(op.u64_keys, op.n, op.delta, options);
      } else {
        op.table->ApplyBatchBytes(op.byte_keys, op.n, op.delta, options);
      }
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

void Iblt::ApplyBatchU64(const uint64_t* keys, size_t n, int32_t delta,
                         const IbltBatchOptions& options) {
  assert(config_.key_width == 8);
  if (n == 0) return;
  // Small batches (the per-child sketches of the set-of-sets protocols)
  // hash into a stack buffer so batched updates stay allocation-free.
  KeyHashes stack_hashes[kSmallBatchMaxKeys];
  std::vector<KeyHashes> heap_hashes(n <= kSmallBatchMaxKeys ? 0 : n);
  KeyHashes* hashes = n <= kSmallBatchMaxKeys ? stack_hashes
                                              : heap_hashes.data();
  for (size_t j = 0; j < n; ++j) hashes[j] = derivation_.HashU64(keys[j]);
  ApplyHashedBatch(hashes, keys, nullptr, n, delta, options);
}

void Iblt::ApplyBatchBytes(const uint8_t* keys, size_t n, int32_t delta,
                           const IbltBatchOptions& options) {
  if (n == 0) return;
  KeyHashes stack_hashes[kSmallBatchMaxKeys];
  std::vector<KeyHashes> heap_hashes(n <= kSmallBatchMaxKeys ? 0 : n);
  KeyHashes* hashes = n <= kSmallBatchMaxKeys ? stack_hashes
                                              : heap_hashes.data();
  const size_t w = config_.key_width;
  for (size_t j = 0; j < n; ++j) hashes[j] = derivation_.Hash(keys + j * w);
  ApplyHashedBatch(hashes, nullptr, keys, n, delta, options);
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

bool Iblt::Peel(DecodeScratch* scratch, IbltDecodeResult64* out_u64) const {
  assert(out_u64 == nullptr || config_.key_width == 8);
  assert(scratch->meta.size() == cells_ &&
         scratch->key_lanes.size() == key_lanes_.size());
  const IbltCellDerivation derivation = derivation_;
  const int k = derivation.num_hashes();
  const size_t lanes_per_key = lanes_per_key_;

  scratch->queued.assign(cells_, 0);
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
  for (size_t i = 0; i < cells_; ++i) {
    if (meta[i].count == 1 || meta[i].count == -1) {
      scratch->queue.push_back(static_cast<uint32_t>(i));
      scratch->queued[i] = 1;
    }
  }

  // A correct drain extracts at most one key per (key, cell) incidence;
  // cap iterations so checksum-collision cascades cannot loop forever.
  size_t budget = 4 * cells_ + 64;
  size_t head = 0;
  while (head < scratch->queue.size() && budget-- > 0) {
    const size_t cell = scratch->queue[head++];
    scratch->queued[cell] = 0;
    const int64_t count = meta[cell].count;
    if (count != 1 && count != -1) continue;  // Stale queue entry.
    const uint8_t* cell_key =
        reinterpret_cast<const uint8_t*>(lanes + cell * lanes_per_key);
    const KeyHashes h = derivation.Hash(cell_key);
    if (meta[cell].check != h.check) continue;  // Count ±1 but not pure.
    const int64_t sign = count;

    if (out_u64 != nullptr) {
      // 8-byte keys: the key is a single lane; no staging copy needed.
      const uint64_t key64 = lanes[cell];
      (sign > 0 ? out_u64->positive : out_u64->negative).push_back(key64);
      for (int i = 0; i < k; ++i) {
        const size_t t = derivation.Cell(h.bucket, i);
        meta[t].count -= sign;
        meta[t].check ^= h.check;
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
      meta[t].check ^= h.check;
      XorLanesScalar(lanes + t * lanes_per_key, staged, lanes_per_key);
      if ((meta[t].count == 1 || meta[t].count == -1) && !scratch->queued[t]) {
        scratch->queue.push_back(static_cast<uint32_t>(t));
        scratch->queued[t] = 1;
      }
    }
  }

  // Complete iff the work table drained to all-zero cells.
  for (size_t i = 0; i < cells_; ++i) {
    if (meta[i].count != 0 || meta[i].check != 0) return false;
  }
  for (size_t i = 0; i < key_lanes_.size(); ++i) {
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
  out.complete = Peel(scratch, nullptr);
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
  if (!Peel(scratch, nullptr)) {
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
  if (!Peel(scratch, &out)) {
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
  if (!Peel(scratch, nullptr)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return GatherU64(scratch);
}

Result<IbltDecodeView64> Iblt::DecodeDifferenceU64View(
    const Iblt& other, DecodeScratch* scratch) const {
  if (!(config_ == other.config_)) {
    return InvalidArgument("IBLT difference decode: mismatched configs");
  }
  assert(config_.key_width == 8);
  // Load this - other straight into the work arrays: the same cell
  // arithmetic as Subtract(), without the intermediate table.
  scratch->meta.resize(cells_);
  scratch->key_lanes.resize(key_lanes_.size());
  IbltCellMeta* meta = scratch->meta.data();
  uint64_t* lanes = scratch->key_lanes.data();
  // LINT(alloc-free) — runs for every (child, partner) pair the set-of-sets
  // protocols try; a warm scratch keeps the whole call off the heap.
  for (size_t i = 0; i < cells_; ++i) {
    meta[i].count = meta_[i].count - other.meta_[i].count;
    meta[i].check = meta_[i].check ^ other.meta_[i].check;
  }
  for (size_t i = 0; i < key_lanes_.size(); ++i) {
    lanes[i] = key_lanes_[i] ^ other.key_lanes_[i];
  }
  // LINT(end)
  if (!Peel(scratch, nullptr)) {
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

void Iblt::Serialize(ByteWriter* writer) const {
  for (size_t i = 0; i < cells_; ++i) {
    writer->PutVarint(ZigZag(meta_[i].count));
    writer->PutU64(meta_[i].check);
    writer->PutBytes(CellKeyBytes(i), config_.key_width);
  }
}

Result<Iblt> Iblt::Deserialize(ByteReader* reader, const IbltConfig& config) {
  Iblt table(config);
  for (size_t i = 0; i < table.cells_; ++i) {
    uint64_t zz = 0;
    if (!reader->GetVarint(&zz)) return ParseError("IBLT truncated (count)");
    table.meta_[i].count = UnZigZag(zz);  // Lossless: counts are int64 wide.
    if (!reader->GetU64(&table.meta_[i].check)) {
      return ParseError("IBLT truncated (check)");
    }
    // Key bytes land directly in the (zero-padded) lane arena.
    if (!reader->GetRaw(config.key_width, table.CellKeyBytes(i))) {
      return ParseError("IBLT truncated (key)");
    }
  }
  return table;
}

void Iblt::SerializeFixed(ByteWriter* writer) const {
  // The whole table is one fixed-size record run, laid out in place
  // (little-endian, as everywhere in the wire format).
  const size_t w = config_.key_width;
  uint8_t* out = writer->Extend(config_.FixedSerializedSize());
  // LINT(alloc-free) — per-cell copy of a whole table (the strata
  // estimator's frames, and the reference the fixed-form writer is tested
  // against).
  for (size_t i = 0; i < cells_; ++i) {
    const uint32_t count = static_cast<uint32_t>(meta_[i].count);
    std::memcpy(out, &count, 4);
    std::memcpy(out + 4, &meta_[i].check, 8);
    std::memcpy(out + 12, CellKeyBytes(i), w);
    out += FixedRecordWidth(w);
  }
  // LINT(end)
}

void Iblt::RankFixed(const IbltConfig& config, IbltKeyView target,
                     std::span<const IbltKeyView> candidates,
                     std::vector<IbltFixedRank>* order) {
  const size_t record = FixedRecordWidth(config.key_width);
  const size_t records =
      config.PaddedCells() / static_cast<size_t>(config.num_hashes);
  assert(target.size >= records * record);
  order->clear();
  for (size_t c = 0; c < candidates.size(); ++c) {
    assert(candidates[c].size >= records * record);
    const uint8_t* a = target.data;
    const uint8_t* b = candidates[c].data;
    size_t distance = 0;
    // LINT(alloc-free) — runs for every (positive, partner) pair Bob
    // ranks, at every attempt and level.
    for (size_t r = 0; r < records; ++r, a += record, b += record) {
      uint64_t diff = 0;
      size_t i = 0;
      for (; i + 8 <= record; i += 8) {
        uint64_t x;
        uint64_t y;
        std::memcpy(&x, a + i, 8);
        std::memcpy(&y, b + i, 8);
        diff |= x ^ y;
      }
      for (; i < record; ++i) diff |= static_cast<uint64_t>(a[i] ^ b[i]);
      distance += diff != 0;
    }
    // LINT(end)
    order->push_back({distance, c});
  }
  std::sort(order->begin(), order->end());
}

Result<Iblt> Iblt::DeserializeFixed(ByteReader* reader,
                                    const IbltConfig& config) {
  Iblt table(config);
  for (size_t i = 0; i < table.cells_; ++i) {
    uint32_t count = 0;
    if (!reader->GetU32(&count)) return ParseError("IBLT truncated (count)");
    table.meta_[i].count = static_cast<int32_t>(count);
    if (!reader->GetU64(&table.meta_[i].check)) {
      return ParseError("IBLT truncated (check)");
    }
    if (!reader->GetRaw(config.key_width, table.CellKeyBytes(i))) {
      return ParseError("IBLT truncated (key)");
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Sparse wire codec (WireCodec::kSparse). Frame = mode byte + body:
//   mode 0 (raw)    — the exact dense cell stream of Serialize(); emitted
//                     when the sparse body would not be smaller (saturated
//                     tables of incompressible data, e.g. the fingerprint
//                     tables whose cells are pure 64-bit hashes).
//   mode 1 (sparse) — occupancy bitmap over !CellIsZero, packed 2-bit count
//                     codes for occupied cells, escape list for counts
//                     outside {-1, +1}, 8 raw check bytes per occupied
//                     cell, group-masked key bytes per occupied cell.
//   mode 2 (delta)  — changed-cell bitmap vs. a lineage parent of identical
//                     config, then the same count/check/key sections for
//                     the changed cells (new absolute values; zero allowed).
// Every section is strictly validated; any malformed prefix yields
// kParseError and no table. Byte-level layout: src/net/README.md.
// ---------------------------------------------------------------------------

namespace {

constexpr uint8_t kSparseModeRaw = 0;
constexpr uint8_t kSparseModeBitmap = 1;
constexpr uint8_t kSparseModeDelta = 2;

// 2-bit count codes, four per byte, low crumbs first.
constexpr uint8_t kCountPlusOne = 0;
constexpr uint8_t kCountMinusOne = 1;
constexpr uint8_t kCountZero = 2;
constexpr uint8_t kCountEscape = 3;

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Group-mask key compression: each 8-byte group of the key is one mask
// byte (bit j = byte j of the group is non-zero) followed by only the
// non-zero bytes. Wire tables subtract away most structure, so key fields
// are dominated by zero bytes; masks reclaim them at one byte per group.
void PutMaskedKey(const uint8_t* key, size_t width, ByteWriter* writer) {
  for (size_t g = 0; g < width; g += 8) {
    const size_t len = std::min<size_t>(8, width - g);
    uint8_t mask = 0;
    for (size_t b = 0; b < len; ++b) {
      mask |= static_cast<uint8_t>((key[g + b] != 0) << b);
    }
    writer->PutU8(mask);
    for (size_t b = 0; b < len; ++b) {
      if (key[g + b] != 0) writer->PutU8(key[g + b]);
    }
  }
}

size_t MaskedKeyLen(const uint8_t* key, size_t width) {
  size_t n = 0;
  for (size_t g = 0; g < width; g += 8) {
    const size_t len = std::min<size_t>(8, width - g);
    ++n;
    for (size_t b = 0; b < len; ++b) n += (key[g + b] != 0);
  }
  return n;
}

// Reads a group-masked key into `out` (writes all `width` bytes, zeros
// included). Fails on truncation or mask bits past a short tail group.
bool GetMaskedKey(ByteReader* reader, size_t width, uint8_t* out) {
  for (size_t g = 0; g < width; g += 8) {
    const size_t len = std::min<size_t>(8, width - g);
    uint8_t mask = 0;
    if (!reader->GetU8(&mask)) return false;
    if (len < 8 && (mask >> len) != 0) return false;
    for (size_t b = 0; b < len; ++b) {
      if (mask & (1u << b)) {
        if (!reader->GetU8(&out[g + b])) return false;
      } else {
        out[g + b] = 0;
      }
    }
  }
  return true;
}

}  // namespace

size_t Iblt::DenseSerializedSize() const {
  size_t n = 0;
  for (size_t i = 0; i < cells_; ++i) {
    n += VarintLen(ZigZag(meta_[i].count)) + 8 + config_.key_width;
  }
  return n;
}

void Iblt::EncodeCellBlock(const std::vector<uint32_t>& cells,
                           ByteWriter* writer) const {
  // Packed 2-bit count codes, four per byte; unused trailing crumbs stay 0.
  uint8_t crumbs = 0;
  int filled = 0;
  std::vector<uint32_t> escapes;
  for (size_t ord = 0; ord < cells.size(); ++ord) {
    const int64_t count = meta_[cells[ord]].count;
    uint8_t code;
    if (count == 1) {
      code = kCountPlusOne;
    } else if (count == -1) {
      code = kCountMinusOne;
    } else if (count == 0) {
      code = kCountZero;
    } else {
      code = kCountEscape;
      escapes.push_back(static_cast<uint32_t>(ord));
    }
    crumbs |= static_cast<uint8_t>(code << (2 * filled));
    if (++filled == 4) {
      writer->PutU8(crumbs);
      crumbs = 0;
      filled = 0;
    }
  }
  if (filled != 0) writer->PutU8(crumbs);
  // Escape list: occupied-ordinal + zigzag count per escaped cell. The
  // ordinals are redundant with the code stream but make each escape entry
  // self-locating, so the decoder can cross-check them.
  writer->PutVarint(escapes.size());
  for (uint32_t ord : escapes) {
    writer->PutVarint(ord);
    writer->PutVarint(ZigZag(meta_[cells[ord]].count));
  }
  // Checksums are XORs of uniform 64-bit hashes — incompressible; raw.
  for (uint32_t cell : cells) writer->PutU64(meta_[cell].check);
  // Key payloads, zero bytes suppressed behind group masks.
  for (uint32_t cell : cells) {
    PutMaskedKey(CellKeyBytes(cell), config_.key_width, writer);
  }
}

Status Iblt::DecodeCellBlock(ByteReader* reader,
                             const std::vector<uint32_t>& cells,
                             bool allow_zero_cells) {
  const size_t n = cells.size();
  // Count codes.
  std::vector<uint8_t> codes(n, kCountZero);
  for (size_t ord = 0; ord < n; ord += 4) {
    uint8_t crumbs = 0;
    if (!reader->GetU8(&crumbs)) {
      return ParseError("sparse IBLT truncated (count codes)");
    }
    const size_t in_byte = std::min<size_t>(4, n - ord);
    if (in_byte < 4 && (crumbs >> (2 * in_byte)) != 0) {
      return ParseError("sparse IBLT: count codes past the last cell");
    }
    for (size_t b = 0; b < in_byte; ++b) {
      codes[ord + b] = (crumbs >> (2 * b)) & 0x3;
    }
  }
  // Escape list, cross-checked against the kCountEscape positions: entries
  // must name exactly those ordinals, in order, with counts that actually
  // need escaping.
  uint64_t num_escapes = 0;
  if (!reader->GetVarint(&num_escapes)) {
    return ParseError("sparse IBLT truncated (escape count)");
  }
  if (num_escapes > n) {
    return ParseError("sparse IBLT: escape count exceeds occupied cells");
  }
  size_t next_escape = 0;  // Scans codes[] for the next kCountEscape.
  std::vector<int64_t> escaped_counts(n, 0);
  for (uint64_t e = 0; e < num_escapes; ++e) {
    uint64_t ord = 0;
    uint64_t zz = 0;
    if (!reader->GetVarint(&ord) || !reader->GetVarint(&zz)) {
      return ParseError("sparse IBLT truncated (escape list)");
    }
    if (ord >= n) {
      return ParseError("sparse IBLT: escape-list index out of range");
    }
    while (next_escape < n && codes[next_escape] != kCountEscape) {
      ++next_escape;
    }
    if (next_escape >= n || ord != next_escape) {
      return ParseError("sparse IBLT: escape-list index mismatch");
    }
    const int64_t count = UnZigZag(zz);
    if (count >= -1 && count <= 1) {
      return ParseError("sparse IBLT: non-canonical escape count");
    }
    escaped_counts[ord] = count;
    ++next_escape;
  }
  for (size_t ord = next_escape; ord < n; ++ord) {
    if (codes[ord] == kCountEscape) {
      return ParseError("sparse IBLT: escape code without escape entry");
    }
  }
  // Apply counts.
  for (size_t ord = 0; ord < n; ++ord) {
    switch (codes[ord]) {
      case kCountPlusOne:
        meta_[cells[ord]].count = 1;
        break;
      case kCountMinusOne:
        meta_[cells[ord]].count = -1;
        break;
      case kCountZero:
        meta_[cells[ord]].count = 0;
        break;
      default:
        meta_[cells[ord]].count = escaped_counts[ord];
        break;
    }
  }
  // Checks.
  for (size_t ord = 0; ord < n; ++ord) {
    if (!reader->GetU64(&meta_[cells[ord]].check)) {
      return ParseError("sparse IBLT truncated (check)");
    }
  }
  // Keys (group-masked; writes every key byte, so parent values from the
  // delta path are fully overwritten).
  for (size_t ord = 0; ord < n; ++ord) {
    if (!GetMaskedKey(reader, config_.key_width, CellKeyBytes(cells[ord]))) {
      return ParseError("sparse IBLT truncated or malformed (key mask)");
    }
  }
  if (!allow_zero_cells) {
    for (size_t ord = 0; ord < n; ++ord) {
      if (CellIsZero(cells[ord])) {
        return ParseError("sparse IBLT: occupied cell decoded to zero");
      }
    }
  }
  return Status::Ok();
}

void Iblt::SerializeSparse(ByteWriter* writer) const {
  std::vector<uint32_t> occupied;
  std::vector<uint8_t> bitmap((cells_ + 7) / 8, 0);
  for (size_t i = 0; i < cells_; ++i) {
    if (!CellIsZero(i)) {
      occupied.push_back(static_cast<uint32_t>(i));
      bitmap[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
    }
  }
  // Exact sparse-body size, computed before encoding so an oversized body
  // is never built: bitmap + count crumbs + escapes + checks + masked keys.
  size_t sparse_size = bitmap.size() + (occupied.size() + 3) / 4;
  size_t num_escapes = 0;
  for (size_t ord = 0; ord < occupied.size(); ++ord) {
    const int64_t count = meta_[occupied[ord]].count;
    if (count < -1 || count > 1) {
      ++num_escapes;
      sparse_size += VarintLen(ord) + VarintLen(ZigZag(count));
    }
  }
  sparse_size += VarintLen(num_escapes) + 8 * occupied.size();
  for (uint32_t cell : occupied) {
    sparse_size += MaskedKeyLen(CellKeyBytes(cell), config_.key_width);
  }
  if (sparse_size >= DenseSerializedSize()) {
    // Raw fallback: saturated/incompressible table — dense is no larger.
    writer->PutU8(kSparseModeRaw);
    Serialize(writer);
    return;
  }
  writer->PutU8(kSparseModeBitmap);
  writer->PutBytes(bitmap);
  EncodeCellBlock(occupied, writer);
}

void Iblt::SerializeDelta(const Iblt& parent, ByteWriter* writer) const {
  assert(config_ == parent.config_);
  writer->PutU8(kSparseModeDelta);
  std::vector<uint32_t> changed;
  std::vector<uint8_t> bitmap((cells_ + 7) / 8, 0);
  for (size_t i = 0; i < cells_; ++i) {
    const bool same =
        meta_[i].count == parent.meta_[i].count &&
        meta_[i].check == parent.meta_[i].check &&
        std::memcmp(CellLanes(i), parent.CellLanes(i),
                    8 * lanes_per_key_) == 0;
    if (!same) {
      changed.push_back(static_cast<uint32_t>(i));
      bitmap[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
    }
  }
  // An all-zero bitmap is the whole frame: the unchanged-table marker.
  writer->PutBytes(bitmap);
  if (changed.empty()) return;
  EncodeCellBlock(changed, writer);
}

Result<Iblt> Iblt::DeserializeSparse(ByteReader* reader,
                                     const IbltConfig& config,
                                     const TableLineage& lineage) {
  uint8_t mode = 0;
  if (!reader->GetU8(&mode)) return ParseError("sparse IBLT truncated (mode)");
  if (mode == kSparseModeRaw) return Deserialize(reader, config);
  if (mode != kSparseModeBitmap && mode != kSparseModeDelta) {
    return ParseError("sparse IBLT: unknown frame mode");
  }
  const bool is_delta = mode == kSparseModeDelta;
  if (is_delta && !lineage.CoversConfig(config)) {
    return ParseError("sparse IBLT: delta frame without matching lineage");
  }
  // Delta starts from a copy of the parent; sparse from an all-zero table.
  Iblt table = is_delta ? *lineage.parent : Iblt(config);
  const size_t cells = table.cells_;
  std::vector<uint8_t> bitmap;
  if (!reader->GetBytes((cells + 7) / 8, &bitmap)) {
    return ParseError("sparse IBLT truncated (occupancy bitmap)");
  }
  if (cells % 8 != 0 && (bitmap.back() >> (cells % 8)) != 0) {
    return ParseError("sparse IBLT: occupancy bits past the last cell");
  }
  std::vector<uint32_t> marked;
  for (size_t i = 0; i < cells; ++i) {
    if (bitmap[i >> 3] & (1u << (i & 7))) {
      marked.push_back(static_cast<uint32_t>(i));
    }
  }
  if (is_delta && marked.empty()) return table;  // Unchanged-table marker.
  Status status =
      table.DecodeCellBlock(reader, marked, /*allow_zero_cells=*/is_delta);
  if (!status.ok()) return status;
  return table;
}

void Iblt::SerializeWith(WireCodec codec, ByteWriter* writer,
                         const TableLineage& lineage) const {
  if (codec != WireCodec::kSparse) {
    Serialize(writer);
    return;
  }
  if (lineage.CoversConfig(config_)) {
    SerializeDelta(*lineage.parent, writer);
    return;
  }
  SerializeSparse(writer);
}

Result<Iblt> Iblt::DeserializeWith(WireCodec codec, ByteReader* reader,
                                   const IbltConfig& config,
                                   const TableLineage& lineage) {
  if (codec != WireCodec::kSparse) return Deserialize(reader, config);
  return DeserializeSparse(reader, config, lineage);
}

}  // namespace setrec
