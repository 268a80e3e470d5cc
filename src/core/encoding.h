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
/// width, followed by the child fingerprint. Written by the same fixed-form
/// writer as AppendChildIbltBlobs.
std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint);

/// Packs the (child IBLT, fingerprint) blobs of every child contiguously,
/// the layout the outer tables take as one batch of keys; fingerprints[i]
/// belongs to children[i]. Extends `out` once by children ×
/// ChildIbltBlobWidth zero bytes, then writes each child's fixed-form
/// sketch straight into its slot (IbltCellDerivation::WriteFixedU64)
/// followed by its fingerprint — no table, no allocation past the one
/// extend, and the child inserts never pass through a ProtocolContext (they
/// are the blob's contents, not a table the protocol keeps). Byte-identical
/// to concatenating EncodeChildIbltBlob over the children.
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

/// One of Bob's differing children as a partner for Alice's child
/// sketches: its parsed child sketch and the child itself.
struct ChildPartner {
  Iblt sketch;
  const ChildSet* set;
};

/// Recovers the child behind one of Alice's child-IBLT blobs (`blob`,
/// parsed as `alice`): decodes her sketch against each partner's sketch in
/// Iblt::RankFixed order of the partners' blobs (partner_blobs[i] is
/// partners[i]'s), then against the empty set, and returns the first
/// ApplyDifference candidate whose fingerprint is alice.fingerprint, or
/// kDecodeFailure. Every partner is tried before the empty set and a
/// verified candidate is Alice's child, so the ranking changes only how
/// soon the match is found, never what is recovered. `order` is the
/// caller's ranking buffer, reused across calls; the decodes churn
/// `scratch`.
Result<ChildSet> RecoverChild(IbltKeyView blob, const ChildEncoding& alice,
                              std::span<const ChildPartner> partners,
                              std::span<const IbltKeyView> partner_blobs,
                              const HashFamily& fp_family,
                              std::vector<IbltFixedRank>* order,
                              DecodeScratch* scratch);

}  // namespace setrec

#endif  // SETREC_CORE_ENCODING_H_
