#include "core/encoding.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "setrec/set_reconciler.h"
#include "util/serialization.h"

namespace setrec {

size_t ChildBlobWidth(size_t h) { return 4 + 8 * h; }

std::vector<uint8_t> EncodeChildBlob(const ChildSet& child, size_t h) {
  ByteWriter writer;
  writer.Reserve(ChildBlobWidth(h));
  AppendChildBlob(child, h, &writer);
  return writer.Take();
}

void AppendChildBlob(const ChildSet& child, size_t h, ByteWriter* out) {
  // Extend zero-fills, which is the blob's padding past the last element.
  uint8_t* blob = out->Extend(ChildBlobWidth(h));
  const uint32_t count = static_cast<uint32_t>(child.size());
  std::memcpy(blob, &count, 4);
  if (!child.empty()) std::memcpy(blob + 4, child.data(), 8 * child.size());
}

Result<ChildSet> DecodeChildBlob(const uint8_t* data, size_t size, size_t h) {
  if (size != ChildBlobWidth(h)) {
    return ParseError("child blob has unexpected width");
  }
  uint32_t count = 0;
  std::memcpy(&count, data, 4);
  if (count > h) return ParseError("child blob count exceeds h");
  ChildSet child(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&child[i], data + 4 + 8 * i, 8);
    if (i > 0 && child[i] <= child[i - 1]) {
      return ParseError("child blob not sorted/unique");
    }
  }
  for (size_t i = 4 + 8 * static_cast<size_t>(count); i < size; ++i) {
    if (data[i] != 0) return ParseError("child blob has nonzero padding");
  }
  return child;
}

size_t ChildIbltBlobWidth(const IbltConfig& child_config) {
  return child_config.SketchSize() + 8;
}

namespace {

/// Writes one child's (child sketch, fingerprint) blob into its zero-filled
/// ChildIbltBlobWidth slot.
void WriteChildIbltBlob(const ChildSet& child,
                        const IbltCellDerivation& derivation,
                        size_t sketch_bytes, uint64_t fingerprint,
                        uint8_t* slot) {
  derivation.WriteFixedU64(child.data(), child.size(), slot);
  std::memcpy(slot + sketch_bytes, &fingerprint, 8);
}

}  // namespace

std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint) {
  std::vector<uint8_t> blob(ChildIbltBlobWidth(child_config), 0);
  WriteChildIbltBlob(child, IbltCellDerivation(child_config),
                     child_config.SketchSize(), fingerprint,
                     blob.data());
  return blob;
}

void AppendChildIbltBlobs(const SetOfSets& children,
                          const IbltConfig& child_config,
                          std::span<const uint64_t> fingerprints,
                          ByteWriter* out) {
  assert(fingerprints.size() == children.size());
  if (children.empty()) return;
  const IbltCellDerivation derivation(child_config);
  const size_t sketch_bytes = child_config.SketchSize();
  const size_t width = ChildIbltBlobWidth(child_config);
  uint8_t* slot = out->Extend(children.size() * width);
  for (size_t i = 0; i < children.size(); ++i, slot += width) {
    WriteChildIbltBlob(children[i], derivation, sketch_bytes, fingerprints[i],
                       slot);
  }
}

void ChildCoins::Begin(const SetOfSets& children, const HashFamily& fp_family,
                       size_t slots) {
  assert(children_ == nullptr || children_ == &children);
  assert(!fp_family_ || fp_family_->seed() == fp_family.seed());
  children_ = &children;
  fp_family_ = fp_family;
  slots_ = slots;
}

const std::vector<uint64_t>& ChildCoins::Fingerprints() {
  if (!fingerprints_) {
    fingerprints_.emplace(children_->size());
    for (size_t i = 0; i < children_->size(); ++i) {
      (*fingerprints_)[i] = ChildFingerprint((*children_)[i], *fp_family_);
    }
  }
  return *fingerprints_;
}

const ChildFingerprintIndex& ChildCoins::Index() {
  if (!index_) index_.emplace(Fingerprints());
  return *index_;
}

const uint8_t* ChildCoins::Blobs(size_t slot, const IbltConfig& config) {
  assert(slot < slots_);
  // Sized on first use, so a half that never writes allocates no slots.
  if (slot > later_slots_.size()) later_slots_.resize(slots_ - 1);
  Slot& held = slot == 0 ? first_slot_ : later_slots_[slot - 1];
  if (held.config != config) {
    held.packed = ByteWriter();
    AppendChildIbltBlobs(*children_, config, Fingerprints(), &held.packed);
    held.config = config;
  }
  return held.packed.bytes().data();
}

namespace {

/// The candidate `decoded` makes of `base`, when its fingerprint is
/// `fingerprint`. The decoded sides are sorted in place (they belong to the
/// scratch), so ApplyDifference merges them with the sorted base as they
/// are.
std::optional<ChildSet> VerifiedCandidate(const ChildSet& base,
                                          const IbltDecodeView64& decoded,
                                          uint64_t fingerprint,
                                          const HashFamily& fp_family) {
  std::sort(decoded.positive.begin(), decoded.positive.end());
  std::sort(decoded.negative.begin(), decoded.negative.end());
  ChildSet candidate =
      ApplyDifference(base, decoded.positive, decoded.negative);
  if (ChildFingerprint(candidate, fp_family) != fingerprint) {
    return std::nullopt;
  }
  return candidate;
}

}  // namespace

Result<ChildSet> RecoverChild(IbltKeyView blob, uint64_t fingerprint,
                              const IbltConfig& child_config,
                              std::span<const IbltKeyView> partner_blobs,
                              std::span<const ChildSet* const> partner_sets,
                              const HashFamily& fp_family,
                              std::vector<IbltFixedRank>* order,
                              DecodeScratch* scratch) {
  assert(partner_blobs.size() == partner_sets.size());
  if (blob.size != ChildIbltBlobWidth(child_config)) {
    return ParseError("child IBLT blob has unexpected width");
  }
  Iblt::RankFixed(child_config, blob, partner_blobs, order);
  for (const IbltFixedRank& rank : *order) {
    Result<IbltDecodeView64> decoded = Iblt::DecodeFixedDifferenceU64View(
        child_config, blob, partner_blobs[rank.index], scratch);
    if (!decoded.ok()) continue;
    std::optional<ChildSet> child =
        VerifiedCandidate(*partner_sets[rank.index], decoded.value(),
                          fingerprint, fp_family);
    if (child) return std::move(*child);
  }
  // A fresh child of Alice's may have no close partner; decoding her sketch
  // alone (the difference against the empty set) recovers it when it has
  // at most ~d elements.
  Result<IbltDecodeView64> decoded = Iblt::DecodeFixedDifferenceU64View(
      child_config, blob, IbltKeyView{}, scratch);
  if (decoded.ok()) {
    std::optional<ChildSet> child =
        VerifiedCandidate(ChildSet(), decoded.value(), fingerprint, fp_family);
    if (child) return std::move(*child);
  }
  return DecodeFailure("child sketch decoded with no partner");
}

}  // namespace setrec
