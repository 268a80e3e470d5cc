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
/// config: the child sketch in the child-sketch form (IbltConfig::SketchSize:
/// per cell a one-byte count mod 256, a SketchCheckWidth()-byte checksum and
/// the 8-byte key, in three sections) plus 8 fingerprint bytes. Bob never
/// parses these blobs back into tables: he ranks and difference-decodes
/// them in place (Iblt::RankFixed, Iblt::DecodeFixedDifferenceU64View) and
/// reads their trailing fingerprints.
size_t ChildIbltBlobWidth(const IbltConfig& child_config);

/// Builds the (child IBLT, hash) encoding of Algorithms 1 and 2: the child's
/// elements inserted into an IBLT with `child_config`, in the child-sketch
/// form, followed by the child fingerprint. Written by the same writer as
/// AppendChildIbltBlobs.
std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint);

/// Packs the (child IBLT, fingerprint) blobs of every child contiguously,
/// the layout the outer tables take as one batch of keys; fingerprints[i]
/// belongs to children[i]. Extends `out` once by children ×
/// ChildIbltBlobWidth zero bytes, then writes each child's sketch straight
/// into its slot (IbltCellDerivation::WriteFixedU64) followed by its
/// fingerprint — no table, no allocation past the one extend, and the child
/// inserts never pass through a ProtocolContext (they are the blob's
/// contents, not a table the protocol keeps). Byte-identical to
/// concatenating EncodeChildIbltBlob over the children.
void AppendChildIbltBlobs(const SetOfSets& children,
                          const IbltConfig& child_config,
                          std::span<const uint64_t> fingerprints,
                          ByteWriter* out);

/// Recovers the child behind one of Alice's child-IBLT blobs: `blob`,
/// ending in `fingerprint` (ChildIbltBlobFingerprint), whose sketch has
/// `child_config`. Decodes her sketch against each of Bob's partner blobs
/// (partner_blobs[i] is the blob of *partner_sets[i]) in Iblt::RankFixed
/// order, then against the empty set, straight from the blob bytes
/// (Iblt::DecodeFixedDifferenceU64View; no table), and returns the first
/// ApplyDifference candidate whose fingerprint is `fingerprint`:
/// kParseError when `blob` is not ChildIbltBlobWidth(child_config) wide,
/// else kDecodeFailure when no candidate verifies. Every partner is tried
/// before the empty set and a verified candidate is Alice's child, so the
/// ranking changes only how soon the match is found, never what is
/// recovered. `order` is the caller's ranking buffer, reused across calls;
/// the decodes churn `scratch`.
Result<ChildSet> RecoverChild(IbltKeyView blob, uint64_t fingerprint,
                              const IbltConfig& child_config,
                              std::span<const IbltKeyView> partner_blobs,
                              std::span<const ChildSet* const> partner_sets,
                              const HashFamily& fp_family,
                              std::vector<IbltFixedRank>* order,
                              DecodeScratch* scratch);

}  // namespace setrec

#endif  // SETREC_CORE_ENCODING_H_
