#ifndef SETREC_CORE_ENCODING_H_
#define SETREC_CORE_ENCODING_H_

#include <cstdint>
#include <optional>
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

/// One party's child coins over the rungs of its attempt ladder that share
/// one child seed (an SSRU doubling ladder's; see AttemptLadder in
/// core/split_party.h): the fingerprints of its children under that seed's
/// fingerprint family, the index over them (Bob maps decoded negatives back
/// through it), and the packed (child IBLT, fingerprint) blobs of each child
/// config slot (one per cascade level; iblt2 has one). Each is made the
/// first time an attempt asks for it and kept while the slot's config stays
/// the same, so a child config's blobs are written once however many rungs
/// sketch it; a config and the family derive from the one child seed, so a
/// kept slot holds the bytes a fresh write would make. The ladder owns one
/// per half and is its one lifetime rule: when a rung's data phase ends and
/// the next rung draws another child seed (every SSRK trial does), the
/// ladder releases the coins before the half exchanges the verdict.
class ChildCoins {
 public:
  /// Starts an attempt over `children` (the same set every attempt) whose
  /// child fingerprints come from `fp_family` and whose child configs fill
  /// `slots` slots. Anything held was made under the same family: the
  /// ladder releases the coins before a rung with another child seed.
  /// Computes nothing: a half that never asks (Alice replaying a memoized
  /// message) pays nothing.
  void Begin(const SetOfSets& children, const HashFamily& fp_family,
             size_t slots);

  /// ChildFingerprint of every child, in child order.
  const std::vector<uint64_t>& Fingerprints();

  /// The index over Fingerprints().
  const ChildFingerprintIndex& Index();

  /// Slot `slot`'s packed blobs of the children under `config`
  /// (AppendChildIbltBlobs' layout, ChildIbltBlobWidth(config) bytes a
  /// child), `slot` below Begin's `slots`: written when the slot holds
  /// none or another config's, else the bytes already there. Valid until
  /// the slot is written again.
  const uint8_t* Blobs(size_t slot, const IbltConfig& config);

 private:
  struct Slot {
    std::optional<IbltConfig> config;
    ByteWriter packed;
  };

  const SetOfSets* children_ = nullptr;
  std::optional<HashFamily> fp_family_;
  std::optional<std::vector<uint64_t>> fingerprints_;
  std::optional<ChildFingerprintIndex> index_;
  size_t slots_ = 0;
  // Slot 0 (iblt2's only one) is held inline, so a one-slot half
  // allocates for its blobs, fingerprints and index only.
  Slot first_slot_;
  std::vector<Slot> later_slots_;
};

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
