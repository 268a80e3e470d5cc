// The IBLT wire codecs: the dense cell stream, the fixed-width form, the
// sparse frames of WireCodec::kSparse, and the table-free difference decode
// of two child sketches in the child-sketch form. Everything here reads or
// writes bytes that cross the wire, so parsers fail closed with kParseError
// on hostile input and no assert is allowed (setrec_lint's parse-assert rule
// covers this file).
// Byte-level layouts: src/net/README.md.

#include <bit>
#include <cstring>

#include "iblt/iblt.h"

namespace setrec {

namespace {

// Zigzag encoding for signed counts in the compact serialization.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// ---------------------------------------------------------------------------
// Group-mask key compression: each 8-byte group of the key is one mask byte
// (bit j = byte j of the group is non-zero) followed by only the non-zero
// bytes. Wire tables subtract away most structure, so key fields are
// dominated by zero bytes; masks reclaim them at one byte per group. Keys
// are read from and written to a cell's key lanes, whose bytes past
// key_width are zero padding, so every group is 8 bytes there and the
// padding never sets a mask bit.
// ---------------------------------------------------------------------------

// LINT(alloc-free) — the masked-key group loops run for every occupied cell
// of every sparse frame, on both sides of every session.

// Bytes of the group-masked form of the `width`-byte key at `key`.
size_t MaskedKeyLen(const uint8_t* key, size_t width) {
  size_t n = 0;
  for (size_t g = 0; g < width; g += 8) {
    n += 1;
    for (size_t b = 0; b < 8; ++b) n += key[g + b] != 0;
  }
  return n;
}

// Writes the group-masked form of the key at `key` at `out`, which the
// caller sized with MaskedKeyLen; returns the end of the key.
uint8_t* PutMaskedKey(const uint8_t* key, size_t width, uint8_t* out) {
  for (size_t g = 0; g < width; g += 8) {
    uint8_t* mask_at = out++;
    unsigned mask = 0;
    for (size_t b = 0; b < 8; ++b) {
      const uint8_t byte = key[g + b];
      if (byte != 0) {
        mask |= 1u << b;
        *out++ = byte;
      }
    }
    *mask_at = static_cast<uint8_t>(mask);
  }
  return out;
}

// Reads a group-masked key from [*in, end) into the key lanes at `key`,
// writing all 8 bytes of every group (zeros included, so delta frames
// overwrite the parent's bytes). Fails on truncation or on mask bits past
// a short final group; *in advances only on success.
bool GetMaskedKey(const uint8_t** in, const uint8_t* end, size_t width,
                  uint8_t* key) {
  const uint8_t* p = *in;
  for (size_t g = 0; g < width; g += 8) {
    // One bounds check covers the mask byte and its payload, which is at
    // most 8 bytes: the payload's exact size matters only near the end of
    // the input.
    const size_t available = static_cast<size_t>(end - p);
    if (available < 9 &&
        (available == 0 ||
         available - 1 < static_cast<size_t>(std::popcount(unsigned{*p})))) {
      return false;
    }
    const unsigned mask = *p++;
    if (width - g < 8 && (mask >> (width - g)) != 0) return false;
    for (size_t b = 0; b < 8; ++b) {
      key[g + b] = ((mask >> b) & 1u) != 0 ? *p++ : uint8_t{0};
    }
  }
  *in = p;
  return true;
}
// LINT(end)

}  // namespace

// ---------------------------------------------------------------------------
// Dense cell stream (WireCodec::kDense, and sparse mode 0).
// ---------------------------------------------------------------------------

size_t Iblt::DenseSerializedSize() const {
  size_t n = 0;
  for (size_t i = 0; i < cells_; ++i) {
    n += VarintLen(ZigZag(meta_[i].count)) + 8 + config_.key_width;
  }
  return n;
}

void Iblt::WriteDense(uint8_t* out) const {
  const size_t w = config_.key_width;
  for (size_t i = 0; i < cells_; ++i) {
    out = PutVarintAt(ZigZag(meta_[i].count), out);
    StoreLittleEndian(out, meta_[i].check);
    std::memcpy(out + 8, CellKeyBytes(i), w);
    out += 8 + w;
  }
}

void Iblt::Serialize(ByteWriter* writer) const {
  WriteDense(writer->Extend(DenseSerializedSize()));
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

// ---------------------------------------------------------------------------
// Fixed-width form: 4-byte count, 8-byte checksum, key bytes per cell.
// ---------------------------------------------------------------------------

void Iblt::SerializeFixed(ByteWriter* writer) const {
  // The whole table is one fixed-size record run, laid out in place
  // (little-endian, as everywhere in the wire format).
  const size_t w = config_.key_width;
  uint8_t* out = writer->Extend(config_.FixedSerializedSize());
  // LINT(alloc-free) — per-cell copy of a whole table (the strata
  // estimator's frames, and the reference the fixed-form writer is tested
  // against).
  for (size_t i = 0; i < cells_; ++i) {
    StoreLittleEndian(out, static_cast<uint32_t>(meta_[i].count));
    StoreLittleEndian(out + 4, meta_[i].check);
    std::memcpy(out + 12, CellKeyBytes(i), w);
    out += IbltConfig::FixedRecordWidth(w);
  }
  // LINT(end)
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
// Child-sketch form (IbltConfig::SketchSize): every cell's count byte, then
// every cell's truncated checksum, then every cell's 8-byte key.
// ---------------------------------------------------------------------------

namespace {

// Loads a - b of two child sketches over `cells` cells with checksums of
// sizeof(Check) bytes into the scratch arrays; `b` null is the empty
// sketch. Counts are subtracted mod 256, then sign-extended.
template <typename Check>
void LoadSketchDifference(const uint8_t* a, const uint8_t* b, size_t cells,
                          IbltCellMeta* meta, uint64_t* lanes) {
  const uint8_t* checks_a = a + cells;
  const uint8_t* keys_a = checks_a + cells * sizeof(Check);
  // LINT(alloc-free) — loads a - b for every (child, partner) pair the
  // set-of-sets protocols try; a warm scratch keeps the call off the heap.
  if (b == nullptr) {
    for (size_t i = 0; i < cells; ++i) {
      meta[i].count = static_cast<int8_t>(a[i]);
      meta[i].check = LoadLittleEndian<Check>(checks_a + i * sizeof(Check));
      lanes[i] = LoadLittleEndian<uint64_t>(keys_a + 8 * i);
    }
    return;
  }
  const uint8_t* checks_b = b + cells;
  const uint8_t* keys_b = checks_b + cells * sizeof(Check);
  for (size_t i = 0; i < cells; ++i) {
    meta[i].count = static_cast<int8_t>(static_cast<uint8_t>(a[i] - b[i]));
    meta[i].check = static_cast<Check>(
        LoadLittleEndian<Check>(checks_a + i * sizeof(Check)) ^
        LoadLittleEndian<Check>(checks_b + i * sizeof(Check)));
    lanes[i] = LoadLittleEndian<uint64_t>(keys_a + 8 * i) ^
               LoadLittleEndian<uint64_t>(keys_b + 8 * i);
  }
  // LINT(end)
}

}  // namespace

Result<IbltDecodeView64> Iblt::DecodeFixedDifferenceU64View(
    const IbltConfig& config, IbltKeyView a, IbltKeyView b,
    DecodeScratch* scratch) {
  if (config.key_width != 8) {
    return InvalidArgument(
        "IBLT child-sketch difference decode needs u64 keys");
  }
  const size_t bytes = config.SketchSize();
  if (a.size < bytes || (b.data != nullptr && b.size < bytes)) {
    return ParseError("IBLT truncated (child sketch)");
  }
  const size_t cells = config.PaddedCells();
  const size_t check_width = config.SketchCheckWidth();
  scratch->meta.resize(cells);
  scratch->key_lanes.resize(cells);
  IbltCellMeta* meta = scratch->meta.data();
  uint64_t* lanes = scratch->key_lanes.data();
  if (check_width == 2) {
    LoadSketchDifference<uint16_t>(a.data, b.data, cells, meta, lanes);
  } else if (check_width == 4) {
    LoadSketchDifference<uint32_t>(a.data, b.data, cells, meta, lanes);
  } else {
    LoadSketchDifference<uint64_t>(a.data, b.data, cells, meta, lanes);
  }
  const uint64_t check_mask =
      check_width == 8 ? kFullCheckMask
                       : (uint64_t{1} << (8 * check_width)) - 1;
  if (!Peel(IbltCellDerivation(config), cells, /*lanes_per_key=*/1,
            check_mask, scratch, nullptr)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return GatherU64(scratch);
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
// kParseError and no table.
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

uint8_t CountCode(int64_t count) {
  if (count == 1) return kCountPlusOne;
  if (count == -1) return kCountMinusOne;
  if (count == 0) return kCountZero;
  return kCountEscape;
}

// Bytes of a cell block over `n` cells.
size_t CellBlockSize(size_t n, size_t escapes, size_t escape_bytes,
                     size_t key_bytes) {
  return (n + 3) / 4 + VarintLen(escapes) + escape_bytes + 8 * n + key_bytes;
}

}  // namespace

Iblt::CellBlockLayout Iblt::MeasureCellBlock(
    const std::vector<uint32_t>& cells) const {
  CellBlockLayout layout;
  for (size_t ord = 0; ord < cells.size(); ++ord) {
    const int64_t count = meta_[cells[ord]].count;
    if (CountCode(count) == kCountEscape) {
      ++layout.escapes;
      layout.escape_bytes += VarintLen(ord) + VarintLen(ZigZag(count));
    }
    layout.key_bytes += MaskedKeyLen(CellKeyBytes(cells[ord]),
                                     config_.key_width);
  }
  return layout;
}

void Iblt::EncodeCellBlock(const std::vector<uint32_t>& cells,
                           const CellBlockLayout& layout,
                           uint8_t* out) const {
  const size_t n = cells.size();
  // Section cursors, placed by the measured layout: packed 2-bit count
  // codes (unused trailing crumbs stay 0); the escape list, one
  // occupied-ordinal + zigzag count per escaped cell (the ordinals are
  // redundant with the code stream but make each entry self-locating, so
  // the decoder can cross-check them); raw checksums (XORs of uniform
  // 64-bit hashes — incompressible); then the group-masked keys.
  uint8_t* crumbs = out;
  uint8_t* escapes = PutVarintAt(layout.escapes, out + (n + 3) / 4);
  uint8_t* checks = escapes + layout.escape_bytes;
  uint8_t* keys = checks + 8 * n;
  uint8_t crumb = 0;
  for (size_t ord = 0; ord < n; ++ord) {
    const IbltCellMeta& meta = meta_[cells[ord]];
    const uint8_t code = CountCode(meta.count);
    if (code == kCountEscape) {
      escapes = PutVarintAt(ord, escapes);
      escapes = PutVarintAt(ZigZag(meta.count), escapes);
    }
    crumb |= static_cast<uint8_t>(code << (2 * (ord % 4)));
    if (ord % 4 == 3 || ord + 1 == n) {
      *crumbs++ = crumb;
      crumb = 0;
    }
    StoreLittleEndian(checks, meta.check);
    checks += 8;
  }
  for (uint32_t cell : cells) {
    keys = PutMaskedKey(CellKeyBytes(cell), config_.key_width, keys);
  }
}

void Iblt::AppendBitmapFrame(uint8_t mode, const std::vector<uint32_t>& cells,
                             const CellBlockLayout& layout,
                             ByteWriter* writer) const {
  const size_t bitmap_bytes = (cells_ + 7) / 8;
  uint8_t* out = writer->Extend(
      1 + bitmap_bytes + CellBlockSize(cells.size(), layout.escapes,
                                       layout.escape_bytes,
                                       layout.key_bytes));
  out[0] = mode;
  // Extend zero-filled the bitmap.
  for (uint32_t cell : cells) {
    out[1 + (cell >> 3)] |= static_cast<uint8_t>(1u << (cell & 7));
  }
  EncodeCellBlock(cells, layout, out + 1 + bitmap_bytes);
}

Status Iblt::DecodeCellBlock(ByteReader* reader,
                             const std::vector<uint32_t>& cells,
                             bool allow_zero_cells) {
  const size_t n = cells.size();
  // Count codes, bounds-checked once and read in place. Escape codes stand
  // as zero until their escape entry sets the count.
  const uint8_t* crumbs = reader->position();
  const size_t crumb_bytes = (n + 3) / 4;
  if (!reader->Skip(crumb_bytes)) {
    return ParseError("sparse IBLT truncated (count codes)");
  }
  if (n % 4 != 0 && (crumbs[crumb_bytes - 1] >> (2 * (n % 4))) != 0) {
    return ParseError("sparse IBLT: count codes past the last cell");
  }
  const auto code_at = [crumbs](size_t ord) {
    return static_cast<uint8_t>((crumbs[ord / 4] >> (2 * (ord % 4))) & 0x3);
  };
  for (size_t ord = 0; ord < n; ++ord) {
    const uint8_t code = code_at(ord);
    meta_[cells[ord]].count = code == kCountPlusOne    ? 1
                              : code == kCountMinusOne ? -1
                                                       : 0;
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
  size_t next_escape = 0;  // Scans the codes for the next kCountEscape.
  for (uint64_t e = 0; e < num_escapes; ++e) {
    uint64_t ord = 0;
    uint64_t zz = 0;
    if (!reader->GetVarint(&ord) || !reader->GetVarint(&zz)) {
      return ParseError("sparse IBLT truncated (escape list)");
    }
    if (ord >= n) {
      return ParseError("sparse IBLT: escape-list index out of range");
    }
    while (next_escape < n && code_at(next_escape) != kCountEscape) {
      ++next_escape;
    }
    if (next_escape >= n || ord != next_escape) {
      return ParseError("sparse IBLT: escape-list index mismatch");
    }
    const int64_t count = UnZigZag(zz);
    if (count >= -1 && count <= 1) {
      return ParseError("sparse IBLT: non-canonical escape count");
    }
    meta_[cells[next_escape]].count = count;
    ++next_escape;
  }
  for (size_t ord = next_escape; ord < n; ++ord) {
    if (code_at(ord) == kCountEscape) {
      return ParseError("sparse IBLT: escape code without escape entry");
    }
  }
  // Checks, bounds-checked once (n is at most the cell count).
  const uint8_t* checks = reader->position();
  if (!reader->Skip(8 * n)) return ParseError("sparse IBLT truncated (check)");
  for (size_t ord = 0; ord < n; ++ord) {
    meta_[cells[ord]].check = LoadLittleEndian<uint64_t>(checks + 8 * ord);
  }
  // Keys (group-masked; writes every key byte, so parent values from the
  // delta path are fully overwritten).
  const uint8_t* keys = reader->position();
  const uint8_t* in = keys;
  const uint8_t* end = keys + reader->remaining();
  for (size_t ord = 0; ord < n; ++ord) {
    if (!GetMaskedKey(&in, end, config_.key_width, CellKeyBytes(cells[ord]))) {
      return ParseError("sparse IBLT truncated or malformed (key mask)");
    }
  }
  if (!reader->Skip(static_cast<size_t>(in - keys))) {
    return ParseError("sparse IBLT truncated (key mask)");
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
  for (size_t i = 0; i < cells_; ++i) {
    if (!CellIsZero(i)) occupied.push_back(static_cast<uint32_t>(i));
  }
  // Exact sparse-body size, measured before encoding so an oversized body
  // is never built: bitmap + count crumbs + escapes + checks + masked keys.
  const CellBlockLayout layout = MeasureCellBlock(occupied);
  const size_t sparse_size =
      (cells_ + 7) / 8 + CellBlockSize(occupied.size(), layout.escapes,
                                       layout.escape_bytes, layout.key_bytes);
  const size_t dense_size = DenseSerializedSize();
  if (sparse_size >= dense_size) {
    // Raw fallback: saturated/incompressible table — dense is no larger.
    uint8_t* out = writer->Extend(1 + dense_size);
    out[0] = kSparseModeRaw;
    WriteDense(out + 1);
    return;
  }
  AppendBitmapFrame(kSparseModeBitmap, occupied, layout, writer);
}

void Iblt::SerializeDelta(const Iblt& parent, ByteWriter* writer) const {
  std::vector<uint32_t> changed;
  for (size_t i = 0; i < cells_; ++i) {
    const bool same =
        meta_[i].count == parent.meta_[i].count &&
        meta_[i].check == parent.meta_[i].check &&
        std::memcmp(CellLanes(i), parent.CellLanes(i),
                    8 * lanes_per_key_) == 0;
    if (!same) changed.push_back(static_cast<uint32_t>(i));
  }
  if (changed.empty()) {
    // An all-zero bitmap is the whole frame: the unchanged-table marker.
    writer->Extend(1 + (cells_ + 7) / 8)[0] = kSparseModeDelta;
    return;
  }
  AppendBitmapFrame(kSparseModeDelta, changed, MeasureCellBlock(changed),
                    writer);
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
  const uint8_t* bitmap = reader->position();
  if (!reader->Skip((cells + 7) / 8)) {
    return ParseError("sparse IBLT truncated (occupancy bitmap)");
  }
  if (cells % 8 != 0 && (bitmap[cells / 8] >> (cells % 8)) != 0) {
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
