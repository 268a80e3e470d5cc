#ifndef SETREC_CORE_ENCODING_H_
#define SETREC_CORE_ENCODING_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "iblt/iblt.h"
#include "util/serialization.h"
#include "util/status.h"

namespace setrec {

/// Fixed-width byte encodings of child sets and of (child IBLT, hash)
/// pairs. Outer IBLTs treat these blobs as keys, so every child encoding
/// under the same protocol parameters must have identical width.

/// Width of a direct child-set blob for child sets of up to `h` elements:
/// a u32 count, h little-endian u64 elements (zero padded).
size_t ChildBlobWidth(size_t h);

/// Encodes `child` (sorted, size <= h) into a ChildBlobWidth(h) blob.
std::vector<uint8_t> EncodeChildBlob(const ChildSet& child, size_t h);

/// The in-place form: writes the same ChildBlobWidth(h) bytes straight into
/// `out` (one Extend, no per-child vector). Packers reserve
/// children × ChildBlobWidth(h) first.
void AppendChildBlob(const ChildSet& child, size_t h, ByteWriter* out);

/// Inverse of EncodeChildBlob; validates count, ordering and padding. The
/// (data, size) form parses straight out of a decode-view arena without an
/// owning copy; the convenience overloads delegate to it.
Result<ChildSet> DecodeChildBlob(const uint8_t* data, size_t size, size_t h);
inline Result<ChildSet> DecodeChildBlob(const std::vector<uint8_t>& blob,
                                        size_t h) {
  return DecodeChildBlob(blob.data(), blob.size(), h);
}
inline Result<ChildSet> DecodeChildBlob(const IbltKeyView& blob, size_t h) {
  return DecodeChildBlob(blob.data, blob.size, h);
}

/// Width of an (IBLT, fingerprint) encoding blob for the given child IBLT
/// config: the fixed IBLT serialization plus 8 fingerprint bytes.
size_t ChildIbltBlobWidth(const IbltConfig& child_config);

/// A parsed child encoding: the child's IBLT sketch plus its fingerprint.
struct ChildEncoding {
  Iblt sketch;
  uint64_t fingerprint;
};

/// Builds the (child IBLT, hash) encoding of Algorithms 1 and 2: the child's
/// elements inserted into an IBLT with `child_config`, serialized fixed-
/// width, followed by the child fingerprint.
std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint);

/// The split form: serializes an already-built child sketch plus its
/// fingerprint, appending ChildIbltBlobWidth bytes to `out` in place.
/// Byte-identical to EncodeChildIbltBlob of the same child.
void AppendChildIbltBlob(const Iblt& sketch, uint64_t fingerprint,
                         ByteWriter* out);

/// Packs the (child IBLT, fingerprint) blobs of every child contiguously,
/// the layout the outer tables take as one batch of keys; fingerprints[i]
/// belongs to children[i]. Reserves children × ChildIbltBlobWidth bytes
/// once, then, for each child, clears ONE reused sketch, inserts the
/// child's elements with InsertBatch and appends the blob in place — no
/// per-child table, and the child inserts never pass through a
/// ProtocolContext (they are the blob's contents, not a table the protocol
/// keeps). Byte-identical to concatenating EncodeChildIbltBlob over the
/// children.
void AppendChildIbltBlobs(const SetOfSets& children,
                          const IbltConfig& child_config,
                          std::span<const uint64_t> fingerprints,
                          ByteWriter* out);

/// Parses a blob produced by EncodeChildIbltBlob. The (data, size) form
/// reads straight out of a decode-view arena.
Result<ChildEncoding> ParseChildIbltBlob(const uint8_t* data, size_t size,
                                         const IbltConfig& child_config);
inline Result<ChildEncoding> ParseChildIbltBlob(
    const std::vector<uint8_t>& blob, const IbltConfig& child_config) {
  return ParseChildIbltBlob(blob.data(), blob.size(), child_config);
}
inline Result<ChildEncoding> ParseChildIbltBlob(
    const IbltKeyView& blob, const IbltConfig& child_config) {
  return ParseChildIbltBlob(blob.data, blob.size, child_config);
}

}  // namespace setrec

#endif  // SETREC_CORE_ENCODING_H_
