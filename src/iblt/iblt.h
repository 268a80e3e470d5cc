#ifndef SETREC_IBLT_IBLT_H_
#define SETREC_IBLT_IBLT_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "hashing/hash.h"
#include "util/aligned.h"
#include "util/serialization.h"
#include "util/status.h"

namespace setrec {

/// Sizing and hashing configuration for an Iblt. Both parties must build
/// tables from identical configs (same cells, hash count, key width, seed)
/// for subtraction to be meaningful; Subtract() enforces this.
struct IbltConfig {
  /// Total number of cells m (rounded up to a multiple of num_hashes so the
  /// table partitions evenly; the paper's "partitioned hash table" variant,
  /// which guarantees the k cells of a key are distinct).
  size_t cells = 16;
  /// Number of hash functions k.
  int num_hashes = 4;
  /// Bytes per key. 8 for 64-bit elements; larger for blob keys such as the
  /// serialized child encodings of Algorithms 1 and 2.
  size_t key_width = 8;
  /// Seed for the bucket and checksum hash families (public coins).
  uint64_t seed = 0;

  /// Config sized to decode a set difference of up to `diff` keys with high
  /// probability (Theorem 2.1's O(d) cells with an explicit constant).
  static IbltConfig ForDifference(size_t diff, uint64_t seed,
                                  size_t key_width = 8, int num_hashes = 4);

  /// cells rounded up to a multiple of num_hashes.
  size_t PaddedCells() const;

  /// Bytes of the fixed-width serialization (count + checksum + key per
  /// cell, plus no header), Iblt::SerializeFixed's size.
  size_t FixedSerializedSize() const;

  /// Bytes of one cell's record in the fixed-width serialization: a 4-byte
  /// count, the 8-byte checksum and `key_width` key bytes.
  static constexpr size_t FixedRecordWidth(size_t key_width) {
    return 12 + key_width;
  }

  /// Bytes of the child-sketch form, the fixed-width form child sketches
  /// take inside the set-of-sets protocols' child blobs
  /// (IbltCellDerivation::WriteFixedU64, Iblt::RankFixed and
  /// Iblt::DecodeFixedDifferenceU64View): three sections in cell order,
  /// first every cell's count mod 256 as one byte, then every cell's
  /// checksum truncated to its low SketchCheckWidth() bytes, then every
  /// cell's key_width key bytes, all little-endian.
  size_t SketchSize() const;

  /// Checksum bytes per cell in the child-sketch form:
  /// SketchCheckWidthFor(PaddedCells() / 2, num_hashes).
  size_t SketchCheckWidth() const;

  /// The smallest of 2, 4 and 8 bytes that holds km-peeler's checksum for
  /// a difference of `n` keys under `num_hashes` hashes, ⌈(k−2)·ln n + k⌉
  /// bits. Decided by integer thresholds, not by a floating-point log, so
  /// both parties agree on every build: 2 bytes at k = 4 through n = 403
  /// (e^6 ≈ 403.4). A truncated checksum can pass an impure cell by chance
  /// (about one in 2^(8w)); the protocols still return no wrong child,
  /// because every recovered child is checked against its 64-bit
  /// fingerprint.
  static size_t SketchCheckWidthFor(size_t n, int num_hashes);

  bool operator==(const IbltConfig&) const = default;
};

/// Compiled-in default for IbltBatchOptions::sharded_min_keys.
inline constexpr size_t kShardedBatchMinKeysDefault = 1u << 16;

/// Which wire encoding a protocol uses for the IBLT tables it sends. A
/// WIRE-layer concern only: in-memory tables are identical under every
/// codec, and both parties must agree on the codec before the first table
/// crosses the wire (the src/net hello frame negotiates it; see
/// src/net/README.md for the byte-level formats).
///
///  * kDense  — the legacy cell stream (Iblt::Serialize): every cell,
///    empty or not. Value 0 on the wire so old transcripts and
///    mixed-version peers keep working.
///  * kSparse — Iblt::SerializeSparse: occupancy bitmap, 2-bit packed
///    counts with an escape list, check/key payloads only for occupied
///    cells, zero bytes of key payloads suppressed behind per-group mask
///    bytes. Falls back to the dense cell stream per table (a mode byte)
///    when the sparse form would be larger, so incompressible tables —
///    8-byte checksums are uniformly random — never expand.
enum class WireCodec : uint8_t { kDense = 0, kSparse = 1 };

class Iblt;

/// Lightweight parent pointer for delta retransmission across the doubling
/// protocols' attempts. When a retry re-sends a table whose config is
/// IDENTICAL to the previous attempt's (same cells, key width, seed), the
/// sender can ship only the cells that changed relative to that parent
/// (Iblt::SerializeDelta) instead of the whole table. Non-owning: the
/// caller keeps the parent table alive for the duration of the encode or
/// decode call; nothing retains the pointer afterwards.
struct TableLineage {
  const Iblt* parent = nullptr;

  /// True when a delta against `parent` can represent a table of `config`:
  /// a parent exists and its config matches exactly. Both protocol halves
  /// evaluate this from their own retained previous-attempt table, so the
  /// decision needs no wire flag — but the frame is still self-describing
  /// (delta frames carry their own mode byte), so a sender without lineage
  /// may fall back to a full sparse frame and the receiver still parses it.
  bool CoversConfig(const IbltConfig& config) const;  // defined after Iblt
};

/// Runtime tuning for the multi-table Iblt::ApplyOps pass, passed by its
/// caller (the service batch planner, threshold sweeps in benches).
/// InsertBatch/EraseBatch take none: they always run on the caller's
/// thread.
struct IbltBatchOptions {
  /// Total keys in an ApplyOps pass at or above which its cell updates are
  /// sharded across std::thread workers (partitions are disjoint cell
  /// ranges, so sharding is synchronization-free and deterministic).
  size_t sharded_min_keys = kShardedBatchMinKeysDefault;
  /// Worker cap for sharded passes; 0 = std::thread::hardware_concurrency().
  int max_workers = 0;
};

/// Result of peeling an IBLT (or a subtracted pair of IBLTs): the keys with
/// positive counts and the keys with negative counts. For Alice's table
/// minus Bob's, positives are S_A \ S_B and negatives are S_B \ S_A.
/// This is the OWNING form (one heap vector per key); the hot decode path
/// returns IbltDecodeView instead and only materializes on request.
struct IbltDecodeResult {
  std::vector<std::vector<uint8_t>> positive;
  std::vector<std::vector<uint8_t>> negative;
};

/// Same, for 64-bit keys.
struct IbltDecodeResult64 {
  std::vector<uint64_t> positive;
  std::vector<uint64_t> negative;
};

/// Non-owning 64-bit decode result: spans into DecodeScratch-owned vectors
/// (the u64 mirror of IbltDecodeView, closing the last capacity-growth
/// allocations of warm u64 decodes). Valid until the scratch's next decode
/// or destruction. The spans are mutable on purpose: the backing storage
/// belongs to the scratch, and callers commonly sort a side in place before
/// consuming it.
struct IbltDecodeView64 {
  std::span<uint64_t> positive;
  std::span<uint64_t> negative;

  /// Deep owning copy, independent of the scratch.
  IbltDecodeResult64 Materialize() const {
    return IbltDecodeResult64{
        std::vector<uint64_t>(positive.begin(), positive.end()),
        std::vector<uint64_t>(negative.begin(), negative.end())};
  }
};

/// A decoded key viewed in place: `size` bytes (the table's key_width) at
/// `data`, pointing into the DecodeScratch output arena that produced it.
///
/// LIFETIME: a view is valid until its scratch is used for another decode
/// (any Decode/DecodePartial/DecodeU64 overload) or destroyed. Callers that
/// must hold keys past that point copy them out with ToVector() or
/// IbltDecodeView::Materialize().
struct IbltKeyView {
  const uint8_t* data = nullptr;
  size_t size = 0;

  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(data, data + size);
  }
  std::span<const uint8_t> bytes() const { return {data, size}; }
};

inline bool operator==(const IbltKeyView& a, const IbltKeyView& b) {
  return a.size == b.size &&
         (a.size == 0 || std::memcmp(a.data, b.data, a.size) == 0);
}
inline bool operator==(const IbltKeyView& a, const std::vector<uint8_t>& b) {
  return a.size == b.size() &&
         (a.size == 0 || std::memcmp(a.data, b.data(), a.size) == 0);
}

/// Transparent lexicographic comparator over byte-string keys, accepting
/// both owned blobs (std::vector<uint8_t>) and IbltKeyView, so decode views
/// sort and search without per-key materialization. The protocols sort
/// decoded negative views with it (core/protocol.h, MarkDecodedNegatives);
/// containers keyed by owned blobs can be probed with views directly:
///   std::map<std::vector<uint8_t>, T, KeyBytesLess> m;
///   m.find(view);  // heterogeneous, allocation-free
struct KeyBytesLess {
  using is_transparent = void;

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return Less(AsSpan(a), AsSpan(b));
  }

 private:
  static std::span<const uint8_t> AsSpan(const IbltKeyView& v) {
    return v.bytes();
  }
  static std::span<const uint8_t> AsSpan(const std::vector<uint8_t>& v) {
    return {v.data(), v.size()};
  }
  static bool Less(std::span<const uint8_t> a, std::span<const uint8_t> b) {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    const int cmp = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    if (cmp != 0) return cmp < 0;
    return a.size() < b.size();
  }
};

/// Non-owning decode result: spans of key views backed by the DecodeScratch
/// passed to Decode()/DecodePartial(). Subject to the IbltKeyView lifetime
/// rule above — reusing or destroying the scratch invalidates every view
/// (and the spans themselves). With a warm scratch the whole decode is
/// allocation-free; Materialize() is the escape hatch for callers that need
/// owning copies.
struct IbltDecodeView {
  std::span<const IbltKeyView> positive;
  std::span<const IbltKeyView> negative;

  /// Deep owning copy (one vector per key), independent of the scratch.
  IbltDecodeResult Materialize() const;
};

/// Best-effort decode: whatever peeled out, plus whether the table drained
/// completely. The cascading protocol (Algorithm 2) uses partial decodes —
/// children missed at level i are caught at level i+1.
struct IbltPartialDecode {
  IbltDecodeResult entries;
  bool complete = false;
};

/// View-based partial decode; same lifetime rules as IbltDecodeView.
struct IbltPartialDecodeView {
  IbltDecodeView entries;
  bool complete = false;
};

/// The key -> cells derivation of one table config: the bucket and check
/// hash families, the partition width m/k and its reciprocal. Each key is
/// hashed ONCE per family — h = bucket.HashBytes(key) and
/// c = check.HashBytes(key) — and its k cells come from the single 64-bit h
/// as
///   cell_i = i * (m/k) + Mix64(h ^ (GOLDEN * (i+1))) % (m/k),
/// i.e. one strong hash plus k cheap mixes, instead of k full key hashes.
/// Both families share their seed-independent lane mixes, so a key's bytes
/// are read once: 8-byte keys through HashWord8Premixed, blob keys (the
/// child encodings of the set-of-sets protocols) through
/// HashFamily::HashBytesPair, which equals the two HashBytes calls exactly.
/// The derivation is identical to the seed implementation's per-index
/// Bucket(), so tables, wire bytes, and decode results are bit-identical
/// for fixed seeds.
///
/// A small value type on purpose: every update loop copies it into a local.
/// A store into a table's cells (int64 counts, uint64 checksums and key
/// lanes, or raw bytes) may alias a member read through `this`, which would
/// reload the partition width and the reciprocal after every store; a local
/// whose address never escapes stays in registers.
class IbltCellDerivation {
 public:
  struct KeyHashes {
    uint64_t bucket;
    uint64_t check;
  };

  explicit IbltCellDerivation(const IbltConfig& config);

  // LINT(alloc-free) — per-(key, hash) math on the build and peel paths:
  // pure mixing and a reciprocal modulo, no heap traffic allowed.
  KeyHashes HashU64(uint64_t key) const {
    // The seed-independent lane mix is shared between the two families.
    const uint64_t mixed = HashFamily::MixLane8(key);
    return {bucket_.HashWord8Premixed(mixed), check_.HashWord8Premixed(mixed)};
  }

  /// Both hashes of the key_width bytes at `key`.
  KeyHashes Hash(const uint8_t* key) const {
    if (key_width_ == 8) {
      uint64_t lane;
      std::memcpy(&lane, key, 8);
      return HashU64(lane);
    }
    // Blob keys: both families in one pass over the key bytes.
    const auto [bucket, check] =
        HashFamily::HashBytesPair(bucket_, check_, key, key_width_);
    return {bucket, check};
  }

  /// The cell of a key with bucket hash `bucket` under hash function
  /// `index`.
  size_t Cell(uint64_t bucket, int index) const {
    const uint64_t sub =
        Mix64(bucket ^ (uint64_t{0x9e3779b97f4a7c15} *
                        static_cast<uint64_t>(index + 1)));
    // Exact `sub % cells_per_hash_` via the precomputed reciprocal, with no
    // hardware division on the hot path.
    return static_cast<size_t>(index) * cells_per_hash_ +
           ModByReciprocal(sub, cells_per_hash_, mod_magic_);
  }
  // LINT(end)

  /// Writes the child-sketch form (IbltConfig::SketchSize) of the table of
  /// this config that holds exactly the `n` 8-byte keys, into `out`, which
  /// must be config.SketchSize() ZERO bytes. Equal to Iblt(config) with
  /// InsertBatch(keys, n), its counts taken mod 256 and its checksums
  /// truncated, with no table, and it never allocates. This is how the
  /// set-of-sets protocols pack child sketches (AppendChildIbltBlobs in
  /// core/encoding.h). Requires key_width == 8.
  ///
  /// Two bodies, chosen by CPU (CpuHasAvx512 in hashing/hash.h):
  ///  * WriteFixedU64Scalar: for each stack block of up to kBlockKeys keys,
  ///    BlockStepScalar computes every key's check and cells, then the
  ///    cell updates run partition by partition, each key adding one to
  ///    the count, its truncated checksum and its value into its k cells
  ///    in place, each field one load and one store of its own width.
  ///  * WriteFixedU64Avx512: the same with BlockStepAvx512, except for
  ///    configs of at most kRegisterCells cells, k <= kBlockHashes and a
  ///    2-byte check (most child sketches): there the counts, checks and
  ///    key lanes accumulate in vector registers, each key's k cells
  ///    become one bit mask that drives masked adds and XORs, and the
  ///    three sections are stored once at the end.
  /// Both write the same bytes, so a child blob does not depend on which
  /// body ran; the scalar body is the reference, and it stays tested on
  /// AVX-512 hosts. WriteFixedU64Avx512 requires CpuHasAvx512().
  void WriteFixedU64(const uint64_t* keys, size_t n, uint8_t* out) const;
  void WriteFixedU64Scalar(const uint64_t* keys, size_t n,
                           uint8_t* out) const;
  void WriteFixedU64Avx512(const uint64_t* keys, size_t n,
                           uint8_t* out) const;

  /// Keys per block step (Iblt::kSmallBatchMaxKeys), and hash indices per
  /// block step: a larger k is covered in groups of kBlockHashes.
  static constexpr size_t kBlockKeys = 128;
  static constexpr int kBlockHashes = 8;
  /// The most cells WriteFixedU64Avx512 keeps in registers: one byte lane
  /// per count and one word lane per check fit a 64-byte vector each, and
  /// the key lanes four 8-lane vectors.
  static constexpr size_t kRegisterCells = 32;

  /// One block step's output: checks[j] is key j's check hash, and
  /// cells[i][j] is its cell under hash index first + i.
  struct BlockHashes {
    uint64_t checks[kBlockKeys];
    size_t cells[kBlockHashes][kBlockKeys];
  };

  /// The two bodies of the block step that every IBLT batch (Iblt's
  /// InsertBatch and EraseBatch) and the child-sketch writer run. For the
  /// n <= kBlockKeys keys packed at key_width bytes each from `keys` (an
  /// array of 64-bit keys is the key_width == 8 case), each writes
  /// Hash(key).check to out->checks and Cell(Hash(key).bucket, first + i)
  /// to out->cells[i], for i < count, count <= kBlockHashes. Entries past
  /// n are unspecified. The scalar body does that key by key.
  /// BlockStepAvx512 does it for eight keys per instruction: 8-byte keys
  /// from one load per eight keys, wider keys from 64-byte loads, one per
  /// key, transposed in registers so that lane l holds key l's next 8
  /// bytes, with HashBytesPair's lane mixes and both chains run in
  /// vectors. It reduces a power-of-two partition width m/k with a mask,
  /// which equals the scalar body's remainder. It requires CpuHasAvx512()
  /// and reads no byte past the n-th key.
  void BlockStepScalar(const uint8_t* keys, size_t n, int first, int count,
                       BlockHashes* out) const;
  void BlockStepAvx512(const uint8_t* keys, size_t n, int first, int count,
                       BlockHashes* out) const;

  int num_hashes() const { return num_hashes_; }
  size_t key_width() const { return key_width_; }

 private:
  /// WriteFixedU64Avx512's register body (iblt_avx512.cc), for configs of
  /// at most kRegisterCells cells, k <= kBlockHashes and a 2-byte check.
  void WriteRegistersAvx512(const uint64_t* keys, size_t n,
                            uint8_t* out) const;

  HashFamily bucket_;
  HashFamily check_;
  size_t key_width_;
  size_t cells_per_hash_;  // Partition width m/k.
  uint64_t mod_magic_;     // floor(2^64 / cells_per_hash_), for Cell().
  int num_hashes_;
  int sketch_check_width_;  // IbltConfig::SketchCheckWidth().
};

/// One candidate's place in Iblt::RankFixed's order: how many partition-0
/// cells it differs from the target in, then its position in the
/// candidate list. Compares lexicographically in that order.
struct IbltFixedRank {
  size_t distance = 0;
  size_t index = 0;

  auto operator<=>(const IbltFixedRank&) const = default;
};

/// One cell's count + checksum, kept adjacent so a random cell touch costs
/// one cache line for the header and one for the key lanes (16-byte record,
/// never straddles a 64-byte line).
struct IbltCellMeta {
  int64_t count = 0;
  uint64_t check = 0;
};

/// Reusable peeling workspace. Decoding copies the table (counts, checksums,
/// key lanes) into this scratch — or, for Iblt::DecodeFixedDifferenceU64View,
/// the cell-wise difference of two child sketches in the child-sketch form
/// (IbltConfig::SketchSize), with no table at all — and peels the copy;
/// after the first decode warms the vectors up, subsequent decodes through
/// the same scratch are fully allocation-free (vector::assign/resize and
/// the output arena reuse capacity) — for byte keys as well as u64 keys.
/// One scratch may be shared across tables of *different* configs — each
/// decode resizes it — which is exactly what the
/// cascading protocol's many child-sketch decodes and the strata estimator's
/// per-stratum decodes need. A scratch carries no table state between
/// decodes; it must not be used by two decodes concurrently.
///
/// The scratch also OWNS the decoded keys of the view-returning overloads:
/// peeled byte keys land lane-aligned in `out_lanes`, and the IbltKeyView
/// entries handed back by Decode(scratch)/DecodePartial(scratch) point into
/// that arena. Starting any new decode on the scratch overwrites the arena
/// and invalidates all views from the previous decode. Holding views from
/// decode A while running decode B therefore requires two scratches (the
/// pattern used by the outer/child decodes of the set-of-sets protocols).
struct DecodeScratch {
  std::vector<IbltCellMeta> meta;
  /// The scratch lane arenas are cache-line aligned (util/aligned.h): a
  /// scratch is allocated once and reused across decodes, so the aligned
  /// allocation is amortized to zero. (Per-TABLE arenas stay plain
  /// vectors — see Iblt::key_lanes_ for why.)
  AlignedLaneVector key_lanes;
  std::vector<uint32_t> queue;   // Pure-cell FIFO (ring over a vector).
  std::vector<uint8_t> queued;   // Per-cell in-queue flag (dedup).
  AlignedLaneVector out_lanes;        // Decoded-key arena (lane-padded).
  std::vector<size_t> pos_offsets;    // Lane offset of each positive key.
  std::vector<size_t> neg_offsets;    // Lane offset of each negative key.
  std::vector<IbltKeyView> pos_views;  // Built over out_lanes post-peel.
  std::vector<IbltKeyView> neg_views;
  std::vector<uint64_t> pos_u64;  // DecodeU64View outputs (gathered from
  std::vector<uint64_t> neg_u64;  // out_lanes post-peel; capacity reused).
};

/// Invertible Bloom Lookup Table (Goodrich & Mitzenmacher; Section 2 of the
/// paper). Supports insertion, deletion (counts may go negative, representing
/// two disjoint sets), cell-wise subtraction of a peer's table, and the
/// peeling decoder with checksum-guarded pure-cell detection.
///
/// Cell layout: cell i owns `meta_[i]` (a 16-byte {signed count, XOR of
/// 64-bit key checksums} record — one cache line per random header touch)
/// and `lanes_per_key_` consecutive uint64 words of `key_lanes_` (XOR of
/// keys).
/// Keys are fixed-width byte strings of config().key_width bytes, stored in
/// the lane arena 8-byte aligned and zero-padded to a whole number of
/// words, so all key XOR (Update / Subtract / Add / zero tests) runs
/// word-wide instead of byte-wide. Key bytes are read back from the arena
/// by address (little-endian layout assumed, as everywhere in the wire
/// format).
///
/// Cells are derived from a key by the table's IbltCellDerivation (one
/// bucket hash and one checksum hash per key, k cheap mixes of the bucket
/// hash for the cells); see there.
///
/// The *_U64 convenience methods treat 64-bit integers as 8-byte
/// little-endian keys and require key_width == 8.
class Iblt {
 public:
  /// Both per-key hashes, each computed exactly once per key. Public so
  /// multi-table batch passes (ApplyOps) can stage hashes in caller-owned
  /// scratch buffers.
  using KeyHashes = IbltCellDerivation::KeyHashes;

  explicit Iblt(const IbltConfig& config);

  const IbltConfig& config() const { return config_; }

  /// Adds a key (count +1 in each of its k cells). `key` must point at
  /// key_width bytes.
  void Insert(const uint8_t* key);
  void Insert(const std::vector<uint8_t>& key);
  void InsertU64(uint64_t key);

  /// Deletes a key (count -1); the key need not be present.
  void Erase(const uint8_t* key);
  void Erase(const std::vector<uint8_t>& key);
  void EraseU64(uint64_t key);

  /// Batched insertion/deletion on the caller's thread, in stack blocks of
  /// kSmallBatchMaxKeys keys: the derivation's block step hashes a block
  /// and computes its cells (in groups of kBlockHashes hash indices), then
  /// cell updates are applied grouped by partition (all partition-0 cells,
  /// then partition-1, ...), which keeps each pass inside one contiguous
  /// m/k-cell window of the arrays. The block step and the updates have a
  /// scalar and an AVX-512 body, chosen by CPU (CpuHasAvx512); the AVX-512
  /// updates XOR a key wider than 8 bytes into its cell 64 bytes at a time
  /// and touch no byte past key_width. Both bodies give the same table.
  /// Requires key_width == 8 for the u64 overloads; the byte overloads
  /// take `n` keys packed contiguously at key_width bytes each. Result is
  /// identical to n single-key Insert/Erase calls, and no batch
  /// allocates.
  void InsertBatch(const uint64_t* keys, size_t n);
  void InsertBatch(const std::vector<uint64_t>& keys);
  void InsertBatch(const uint8_t* keys, size_t n);
  void EraseBatch(const uint64_t* keys, size_t n);
  void EraseBatch(const std::vector<uint64_t>& keys);
  void EraseBatch(const uint8_t* keys, size_t n);

  /// Cell-wise subtraction: this -= other. After Alice's table is
  /// subtracted by Bob's, only the symmetric difference remains.
  Status Subtract(const Iblt& other);

  /// Cell-wise addition: this += other. Used to merge sketches built from
  /// disjoint element streams (e.g., strata-estimator merge).
  Status Add(const Iblt& other);

  /// Runs the peeling decoder on a copy of the table. Returns the decoded
  /// difference, or kDecodeFailure if a nonempty 2-core (or checksum
  /// corruption) prevents complete extraction. Failure is detectable: the
  /// table does not drain to all-zero cells.
  ///
  /// The scratch overload returns VIEWS into the scratch's output arena
  /// (see IbltKeyView for the lifetime rule: valid until the scratch's next
  /// decode or destruction); with a warm scratch it performs zero heap
  /// allocations. The scratch-free overload allocates a fresh workspace per
  /// call and returns an owning, materialized result.
  Result<IbltDecodeResult> Decode() const;
  Result<IbltDecodeView> Decode(DecodeScratch* scratch) const;
  Result<IbltDecodeResult64> DecodeU64() const;
  Result<IbltDecodeResult64> DecodeU64(DecodeScratch* scratch) const;
  /// View-returning u64 decode: the result spans the scratch's pos_u64 /
  /// neg_u64 vectors (IbltKeyView lifetime rule: valid until the scratch's
  /// next decode or destruction). With a warm scratch the whole decode
  /// performs zero heap allocations — the u64 counterpart of the byte-key
  /// Decode(scratch) path. Requires key_width == 8.
  Result<IbltDecodeView64> DecodeU64View(DecodeScratch* scratch) const;
  /// Table-free difference decode of two child sketches of `config` in the
  /// child-sketch form (IbltConfig::SketchSize; bytes past it, such as a
  /// child blob's fingerprint, are ignored): loads (a - b) cell by cell
  /// straight into the scratch — the two count bytes subtracted mod 256
  /// and the result sign-extended, the truncated checksums XORed — and
  /// peels it, comparing checksums in their SketchCheckWidth() low bytes.
  /// `b` without data (IbltKeyView{}) is the empty table, so `a` is decoded
  /// alone. Returns what Subtract and DecodeU64View of the two tables
  /// return — the same status, the same keys in the same (deterministic
  /// peel) order — whenever every cell's count difference lies in
  /// [-128, 127] and no impure cell's checksum matches by chance in its
  /// truncated bytes; a chance match can peel a wrong key, which callers
  /// catch with a fingerprint (RecoverChild does). kParseError for a blob
  /// shorter than config.SketchSize(), kInvalidArgument unless key_width ==
  /// 8. Same view lifetime and warm-scratch zero-allocation guarantee as
  /// DecodeU64View. The set-of-sets protocols try one of Alice's child
  /// sketches against each of Bob's partner blobs this way (RecoverChild in
  /// core/encoding.h), reading both sketches in place.
  static Result<IbltDecodeView64> DecodeFixedDifferenceU64View(
      const IbltConfig& config, IbltKeyView a, IbltKeyView b,
      DecodeScratch* scratch);

  /// Peels as far as possible and reports completeness instead of failing.
  /// Same owning-vs-view split as Decode().
  IbltPartialDecode DecodePartial() const;
  IbltPartialDecodeView DecodePartial(DecodeScratch* scratch) const;

  /// True if every cell is zero (empty table or perfectly cancelled).
  bool IsZero() const;

  // The wire codecs, Serialize through DeserializeWith, and
  // DecodeFixedDifferenceU64View live in iblt_codec.cc. They read bytes a
  // peer sent, so they fail closed with kParseError and never assert
  // (setrec_lint's parse-assert rule covers that file).

  /// Compact serialization (varint counts) for direct transmission,
  /// written through one ByteWriter::Extend of its exact size.
  void Serialize(ByteWriter* writer) const;
  [[nodiscard]] static Result<Iblt> Deserialize(ByteReader* reader, const IbltConfig& config);

  /// Sparse WIRE serialization (WireCodec::kSparse). Emits one mode byte,
  /// then either the sparse body (occupancy bitmap over non-zero cells,
  /// counts packed 2 bits each with an escape list for |count| > 1, 8-byte
  /// checksums and group-masked key bytes only for occupied cells) or — when
  /// the sparse body would not be smaller — the exact dense cell stream of
  /// Serialize(). In-memory representation is unchanged; this is purely an
  /// encoding of the same cells. Byte-level layout: src/net/README.md.
  ///
  /// CODEC LIFETIME: the codec choice is per-CONNECTION, not per-table.
  /// Both halves fix a WireCodec before the first table crosses the wire
  /// (SsrParams::wire_codec, negotiated by the src/net hello frame) and
  /// every table of the session uses it; a decoder never sniffs. Within
  /// kSparse, each frame is self-describing via its mode byte (raw-dense
  /// fallback, sparse body, or delta), so mode varies per table while the
  /// codec does not. Like the decode-view lifetime rule above, nothing here
  /// outlives the call: encode and decode work on complete in-memory tables
  /// and borrow `lineage.parent` only for the duration of the call.
  ///
  /// Every frame is written through one ByteWriter::Extend of its exact
  /// size, measured first, and filled in place.
  void SerializeSparse(ByteWriter* writer) const;
  /// Parses a kSparse frame (any mode). Fails closed — kParseError, never a
  /// partially-initialized table — on every malformed prefix: truncated or
  /// over-long occupancy bitmap, occupancy bits past the last cell, corrupt
  /// packed-count crumbs, escape-list index out of range or out of order,
  /// non-canonical escape values, payload lengths past the end of input,
  /// cells marked occupied that decode to all-zero, and delta frames when
  /// `lineage` cannot cover `config`.
  [[nodiscard]] static Result<Iblt> DeserializeSparse(ByteReader* reader,
                                        const IbltConfig& config,
                                        const TableLineage& lineage = {});

  /// Delta retransmission frame: only the cells that differ from
  /// `parent`, as a changed-cell bitmap plus sparse payloads of the new
  /// absolute cell values. An all-zero bitmap is the unchanged-table
  /// marker: four bytes on the wire for a verbatim retransmission. Only
  /// meaningful under WireCodec::kSparse; DeserializeSparse parses it when
  /// given the same lineage. Precondition: `parent` has this table's config
  /// (TableLineage::CoversConfig), which SerializeWith checks before it
  /// calls here.
  void SerializeDelta(const Iblt& parent, ByteWriter* writer) const;

  /// Dispatch helpers: the codec-generic entry points protocols call.
  /// kDense → Serialize/Deserialize, kSparse → SerializeSparse (with an
  /// optional lineage for delta frames) / DeserializeSparse.
  void SerializeWith(WireCodec codec, ByteWriter* writer,
                     const TableLineage& lineage = {}) const;
  [[nodiscard]] static Result<Iblt> DeserializeWith(WireCodec codec, ByteReader* reader,
                                      const IbltConfig& config,
                                      const TableLineage& lineage = {});

  /// Fixed-width serialization: every table with the same config produces
  /// the same number of bytes, so serialized tables can themselves be used
  /// as (XOR-able) IBLT keys, as in the IBLT-of-IBLTs constructions. Writes
  /// all config().FixedSerializedSize() bytes in place with one
  /// ByteWriter::Extend: per cell, in cell order, the count as 4
  /// little-endian bytes (two's complement, truncated), the 8-byte checksum,
  /// then the key_width key bytes. The strata estimator's frames use it;
  /// child sketches use the narrower child-sketch form instead
  /// (IbltConfig::SketchSize).
  void SerializeFixed(ByteWriter* writer) const;
  [[nodiscard]] static Result<Iblt> DeserializeFixed(ByteReader* reader,
                                       const IbltConfig& config);

  /// Orders child sketches of `config` in the child-sketch form
  /// (IbltConfig::SketchSize; bytes past it, such as a child blob's
  /// fingerprint, are ignored) by how many partition-0 cells — the first
  /// m/k — differ from `target`'s in count, checksum or key, ties by
  /// position: `order` is cleared and refilled with one entry per
  /// candidate, sorted. Every key touches exactly one partition-0 cell, so
  /// two tables whose key sets differ in e keys differ in at most e of
  /// those cells, while the ~2h keys of two unrelated h-key sets leave
  /// almost none of them equal (balls into bins). The set-of-sets protocols
  /// try Bob's partner sketches for one of Alice's child sketches in this
  /// order, so the true partner is usually the first decode. Requires
  /// key_width == 8. Allocation-free once `order` has the capacity.
  static void RankFixed(const IbltConfig& config, IbltKeyView target,
                        std::span<const IbltKeyView> candidates,
                        std::vector<IbltFixedRank>* order);

  /// One deferred batch op of a multi-table pass: insert (delta=+1) or
  /// erase (delta=-1) `n` keys into `table`. Exactly one of u64_keys /
  /// byte_keys is set; byte keys are packed at table->config().key_width
  /// bytes each.
  struct ApplyOp {
    Iblt* table = nullptr;
    const uint64_t* u64_keys = nullptr;
    const uint8_t* byte_keys = nullptr;
    size_t n = 0;
    int32_t delta = +1;
  };

  /// Reusable hash staging for ApplyOps; warms up like DecodeScratch.
  struct ApplyScratch {
    std::vector<KeyHashes> hashes;
    std::vector<size_t> offsets;
  };

  /// Applies a block of batch ops — typically gathered from many
  /// reconciliation sessions by the service batch planner — as one
  /// coalesced pass. All keys are hashed first (into `scratch`), then cell
  /// updates run grouped by partition across every op. When the TOTAL key
  /// count across ops reaches options.sharded_min_keys, partitions are
  /// sharded over std::thread workers: worker t applies partition indices
  /// {t, t+W, ...} of every op, so each (table, partition) — a disjoint
  /// cell range — is touched by exactly one worker, in op order. The result
  /// is bit-identical to applying the ops sequentially, for any worker
  /// count. This is how sub-threshold per-session batches cross the
  /// sharding threshold when coalesced (the cross-session balls-into-bins
  /// regime).
  static void ApplyOps(const ApplyOp* ops, size_t count,
                       const IbltBatchOptions& options, ApplyScratch* scratch);

  /// Keys per stack block of InsertBatch/EraseBatch and of
  /// IbltCellDerivation::WriteFixedU64 (IbltCellDerivation::kBlockKeys):
  /// a batch of any size is hashed and applied one block at a time, so no
  /// batch stages its hashes on the heap.
  static constexpr size_t kSmallBatchMaxKeys = IbltCellDerivation::kBlockKeys;

  /// Test hook: when > 0, a sharded ApplyOps pass uses exactly this many
  /// workers regardless of std::thread::hardware_concurrency(), so the
  /// sharded path can be exercised deterministically on any machine.
  static int sharded_workers_for_test;

 private:
  void Update(const uint8_t* key, int32_t delta);
  bool CellIsZero(size_t cell) const;

  /// The variable-length sections of a cell block, measured before it is
  /// written so that a frame is one Extend of its exact size.
  struct CellBlockLayout {
    size_t escapes = 0;       // Cells whose count takes an escape entry.
    size_t escape_bytes = 0;  // Their (ordinal, zigzag count) varints.
    size_t key_bytes = 0;     // Group-masked key bytes of every cell.
  };

  /// Shared sparse-codec sections (counts + checks + masked keys for a
  /// list of cell indices), used by both the full sparse frame and the
  /// delta frame. MeasureCellBlock sizes them; EncodeCellBlock writes them
  /// at `out`, which has exactly that many bytes. `allow_zero_cells` is set
  /// on the delta path, where a changed cell may legitimately become
  /// all-zero.
  CellBlockLayout MeasureCellBlock(const std::vector<uint32_t>& cells) const;
  void EncodeCellBlock(const std::vector<uint32_t>& cells,
                       const CellBlockLayout& layout, uint8_t* out) const;
  /// Appends `mode`, the bitmap of `cells` and their cell block through one
  /// Extend.
  void AppendBitmapFrame(uint8_t mode, const std::vector<uint32_t>& cells,
                         const CellBlockLayout& layout,
                         ByteWriter* writer) const;
  Status DecodeCellBlock(ByteReader* reader,
                         const std::vector<uint32_t>& cells,
                         bool allow_zero_cells);
  /// Exact byte count Serialize() emits (the sparse encoder's fallback
  /// threshold), and the dense cell stream itself, written at `out`.
  size_t DenseSerializedSize() const;
  void WriteDense(uint8_t* out) const;

  uint64_t* CellLanes(size_t cell) {
    return key_lanes_.data() + cell * lanes_per_key_;
  }
  const uint64_t* CellLanes(size_t cell) const {
    return key_lanes_.data() + cell * lanes_per_key_;
  }
  uint8_t* CellKeyBytes(size_t cell) {
    return reinterpret_cast<uint8_t*>(CellLanes(cell));
  }
  const uint8_t* CellKeyBytes(size_t cell) const {
    return reinterpret_cast<const uint8_t*>(CellLanes(cell));
  }

  /// The batch internals. ApplyBatch is every InsertBatch/EraseBatch: one
  /// loop over stack blocks of keys packed at key_width bytes, each run
  /// through the block step and then applied partition by partition, on
  /// the calling thread. UpdateCellsAvx512 is the AVX-512 body of those
  /// updates for keys wider than 8 bytes (iblt_avx512.cc).
  /// ApplyPartitionRange applies partition indices {first_index,
  /// first_index + index_step, ...} of keys hashed per key into a sharded
  /// ApplyOps pass's staging.
  void ApplyBatch(const uint8_t* keys, size_t n, int32_t delta);
  static void UpdateCellsAvx512(const IbltCellDerivation::BlockHashes& hashes,
                                int count, const uint8_t* keys, size_t n,
                                size_t key_width, size_t lanes_per_key,
                                int32_t delta, IbltCellMeta* meta,
                                uint64_t* lanes);
  void ApplyPartitionRange(const KeyHashes* hashes, const uint64_t* u64_keys,
                           const uint8_t* byte_keys, size_t n, int32_t delta,
                           int first_index, int index_step);

  /// Decoding is load + peel. LoadInto copies this table's cells into the
  /// scratch work arrays (DecodeFixedDifferenceU64View loads a difference
  /// of two child sketches instead, with no table); Peel then runs the
  /// one shared peeling loop over the `cells` loaded cells of
  /// `lanes_per_key` key lanes each, whose keys map to cells through
  /// `derivation`. It needs no table. A key's checksum enters the peel as
  /// its `check_mask` bits: the loaded checksums of a child-sketch
  /// difference hold only SketchCheckWidth() bytes, and every in-memory
  /// decode passes all 64 bits (kFullCheckMask). In u64 mode (out_u64 !=
  /// nullptr) decoded keys go to out_u64's vectors; in byte mode they are
  /// appended lane-aligned to scratch->out_lanes with their offsets
  /// recorded in pos/neg_offsets. Returns true iff the work arrays drained
  /// to all-zero cells.
  void LoadInto(DecodeScratch* scratch) const;
  static constexpr uint64_t kFullCheckMask = ~uint64_t{0};
  static bool Peel(const IbltCellDerivation& derivation, size_t cells,
                   size_t lanes_per_key, uint64_t check_mask,
                   DecodeScratch* scratch, IbltDecodeResult64* out_u64);
  /// Builds the IbltKeyView arrays over scratch->out_lanes after a byte-mode
  /// peel (deferred so arena growth during the peel cannot dangle views).
  IbltDecodeView BuildViews(DecodeScratch* scratch) const;
  /// Gathers a byte-mode peel of 8-byte keys into the scratch's u64 side
  /// vectors and returns the view over them.
  static IbltDecodeView64 GatherU64(DecodeScratch* scratch);

  IbltConfig config_;
  size_t cells_;           // Padded cell count.
  size_t lanes_per_key_;   // ceil(key_width / 8) uint64 words per cell.
  IbltCellDerivation derivation_;
  std::vector<IbltCellMeta> meta_;   // Per-cell count + checksum.
  /// cells_ * lanes_per_key_ words. Deliberately a PLAIN vector: tables
  /// are allocated per session in the hot path and over-aligned operator
  /// new bypasses the allocator's fast bins (measured ~25% service-level
  /// regression when this arena was 64-byte aligned). Per-cell starts are
  /// only 8-aligned regardless (lanes_per_key_ is arbitrary); the
  /// cache-line-aligned arenas live in DecodeScratch, whose vectors are
  /// allocated once and reused.
  std::vector<uint64_t> key_lanes_;
};

inline bool TableLineage::CoversConfig(const IbltConfig& config) const {
  return parent != nullptr && parent->config() == config;
}

}  // namespace setrec

#endif  // SETREC_IBLT_IBLT_H_
