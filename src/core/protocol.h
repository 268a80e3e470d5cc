#ifndef SETREC_CORE_PROTOCOL_H_
#define SETREC_CORE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/task.h"
#include "hashing/hash.h"
#include "iblt/iblt.h"
#include "transport/channel.h"
#include "util/status.h"

namespace setrec {

class ProtocolContext;

/// A child set: sorted, duplicate-free 64-bit elements. Elements must be
/// below kUserElementLimit (2^56) unless they are library markers (see
/// setrec/multiset_codec.h). Multisets ride on top via MultisetCodec.
using ChildSet = std::vector<uint64_t>;

/// A parent set of child sets. Canonical form: each child sorted, children
/// sorted lexicographically, no duplicate children (duplicates are expressed
/// with NormalizeParentMultiset).
using SetOfSets = std::vector<ChildSet>;

/// Parameters shared by both parties of a set-of-sets reconciliation
/// (Section 3 of the paper). These are model parameters — u, s, h are part
/// of the problem statement, and `seed` realizes the public-coin assumption.
struct SsrParams {
  /// h: upper bound on child-set size, known to both parties.
  size_t max_child_size = 0;
  /// s: upper bound on the number of child sets per party (0 = no bound;
  /// then d-hat defaults to d).
  size_t max_children = 0;
  /// Optional tighter bound on the number of *differing* child sets across
  /// both parties (0 = unknown). Composite protocols often know this is far
  /// below the element-change bound d (e.g., the forest protocol's d * sigma
  /// element changes are concentrated on ~d * sigma child multisets but the
  /// reverse direction also holds structurally); supplying it shrinks the
  /// outer tables.
  size_t max_differing_children = 0;
  /// Public-coin seed shared by Alice and Bob.
  uint64_t seed = 0;
  /// Whole-protocol replication bound (the amplification construction at
  /// the end of Section 3.2): attempts use independent public coins and the
  /// first fingerprint-verified recovery wins.
  int max_attempts = 4;
  /// Safety factor applied to difference-estimator outputs (SSRU paths).
  double estimate_slack = 2.0;
  /// Wire encoding for the IBLT tables the protocols exchange (a transport
  /// concern: tables and decode results are identical under every codec).
  /// Both parties must agree; src/net carries it in the hello frame.
  /// Defaults to kDense so existing transcripts stay byte-identical.
  WireCodec wire_codec = WireCodec::kDense;

  bool operator==(const SsrParams&) const = default;
};

/// Statistics of a finished reconciliation, read off the Channel plus the
/// retry counter. Collected by benches for the Table 1 reproduction.
struct SsrStats {
  size_t rounds = 0;
  size_t bytes = 0;
  int attempts = 1;
};

/// Outcome: Bob's recovery of Alice's parent set (canonical form).
struct SsrOutcome {
  SetOfSets recovered;
  SsrStats stats;
};

/// Interface shared by the four protocol families of Section 3. Reconcile
/// is one-way: at the end Bob can reproduce Alice's set of sets. Passing
/// `known_d` runs the SSRK variant; nullopt runs SSRU (the protocol spends
/// extra rounds estimating or doubling d).
///
/// The primitives are the PER-PARTY halves: ReconcileAsyncAlice and
/// ReconcileAsyncBob are lazy coroutines that each run exactly one party.
/// A half sends its own messages through ctx->Send and awaits the peer's
/// through ctx->Receive (core/build_context.h); `channel` is that party's
/// copy of the transcript, which converges to the same byte sequence on
/// both sides because the protocols are strict half-duplex ping-pong. The
/// halves are what let a server host only its own side of a session against
/// a remote client (src/net/); knowledge the old single-coroutine
/// simulation shared implicitly now crosses the wire explicitly — per-
/// attempt verdict frames and estimator-mode d-hat prefixes
/// (core/split_party.h).
///
/// ReconcileAsync is the thin composition of the two halves over one shared
/// channel, and the blocking Reconcile drives it under an InlineContext —
/// so direct calls, loopback service sessions, and split-party socket
/// sessions execute the same per-party code and produce bit-identical
/// transcripts for fixed seeds.
class SetsOfSetsProtocol {
 public:
  virtual ~SetsOfSetsProtocol() = default;

  /// Short identifier ("naive", "iblt2", "cascade", "multiround").
  virtual std::string Name() const = 0;

  /// Alice's half: the one-way source. Completes with OK once Bob's verdict
  /// confirms recovery; Alice never learns Bob's set, so there is no
  /// outcome payload. The caller must keep alice/channel/ctx alive until
  /// the task completes.
  virtual Task<Status> ReconcileAsyncAlice(const SetOfSets& alice,
                                           std::optional<size_t> known_d,
                                           Channel* channel,
                                           ProtocolContext* ctx) const = 0;

  /// Bob's half: the recovering party; produces the outcome.
  virtual Task<Result<SsrOutcome>> ReconcileAsyncBob(
      const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
      ProtocolContext* ctx) const = 0;

  /// Both parties composed over one shared channel: starts the two halves
  /// and joins them (each half's sends wake the other's parked receives
  /// through the context). Same signature and semantics as the old
  /// single-coroutine form.
  Task<Result<SsrOutcome>> ReconcileAsync(const SetOfSets& alice,
                                          const SetOfSets& bob,
                                          std::optional<size_t> known_d,
                                          Channel* channel,
                                          ProtocolContext* ctx) const;

  /// Blocking form: runs ReconcileAsync to completion under a fresh
  /// InlineContext.
  Result<SsrOutcome> Reconcile(const SetOfSets& alice, const SetOfSets& bob,
                               std::optional<size_t> known_d,
                               Channel* channel) const;
};

/// Sorts each child and the parent; removes duplicate children. (Duplicate
/// children are not representable as a set of sets; see
/// NormalizeParentMultiset for multiset parents.)
SetOfSets Canonicalize(SetOfSets sets);

/// Order-invariant fingerprint of a parent set: the sum-based SetFingerprint
/// of the child fingerprints, taken over the children exactly as given. It
/// does NOT canonicalize: a repeated child counts twice and an unsorted
/// child hashes as its raw elements, so callers fingerprint canonical sets
/// (ValidateSetOfSets admits no repeated child).
uint64_t ParentFingerprint(const SetOfSets& sets, const HashFamily& family);

/// Per-child fingerprint (the paper's "O(log s)-bit pairwise independent
/// hash of the child set"); we use 64 bits.
uint64_t ChildFingerprint(const ChildSet& child, const HashFamily& family);

/// Total number of elements across all children (the paper's n).
size_t TotalElements(const SetOfSets& sets);

/// Checks elements are within the library's element space, children are
/// sorted/unique and no larger than params.max_child_size (if set), and no
/// child appears twice (repeated children are not representable; see
/// NormalizeParentMultiset). The parent itself may be in any order.
Status ValidateSetOfSets(const SetOfSets& sets, const SsrParams& params);

/// The fingerprint an (IBLT, fingerprint) blob of core/encoding.h ends in:
/// its last 8 bytes, little-endian. 0 for a blob of fewer than 8 bytes,
/// which no outer table decodes (its keys are ChildIbltBlobWidth wide) and
/// RecoverChild rejects.
uint64_t ChildIbltBlobFingerprint(IbltKeyView blob);

/// Bob's own children indexed by fingerprint: one flat vector of (child
/// fingerprint, child index) pairs, sorted once per attempt. Decoded
/// negatives map back to Bob's children through a binary search, and the
/// index costs one allocation however many children Bob holds.
class ChildFingerprintIndex {
 public:
  /// Indexes child i under fingerprints[i].
  explicit ChildFingerprintIndex(std::span<const uint64_t> fingerprints);

  /// True when two indexed children share a fingerprint.
  bool HasDuplicate() const;

  /// A child whose fingerprint is `fp` (the lowest index), or nullopt.
  std::optional<size_t> Find(uint64_t fp) const;

  /// The child whose packed blob equals `blob` byte for byte, or nullopt.
  /// `packed` holds one blob.size-byte blob per indexed child, in child
  /// order, each ending in that child's 8-byte fingerprint: the (child
  /// IBLT, fingerprint) encodings of core/encoding.h. The blob's trailing
  /// fingerprint (ChildIbltBlobFingerprint) picks the candidates and a
  /// whole-blob compare confirms one; a fingerprint match alone never
  /// selects a child. Allocation-free.
  std::optional<size_t> FindBlob(const IbltKeyView& blob,
                                 const uint8_t* packed) const;

 private:
  std::vector<std::pair<uint64_t, size_t>> entries_;  // Sorted.
};

/// For blobs that carry no fingerprint (naive's direct child blobs,
/// cascade's T* blobs): sorts the decoded `negatives` once and looks each
/// of Bob's `count` packed blobs (`width` bytes apiece, child order) up
/// among them, setting (*drop)[i] for a match. Bob's blobs are distinct
/// (ValidateSetOfSets admits no repeated child, and a direct blob encodes
/// its child exactly), so each negative drops at most one child.
void MarkDecodedNegatives(std::span<const IbltKeyView> negatives,
                          const uint8_t* packed, size_t width, size_t count,
                          std::vector<bool>* drop);

/// One of Alice's children as Bob recovered it, with the fingerprint Bob
/// verified it against: ChildFingerprint(set) over the elements as
/// received.
struct RecoveredChild {
  ChildSet set;
  uint64_t fingerprint = 0;
};

/// Bob's recovered parent and the fingerprint to check against Alice's.
struct AssembledParent {
  SetOfSets parent;
  uint64_t fingerprint = 0;
};

/// The last step of Bob's attempt in every protocol. Returns
/// Canonicalize(kept + recovered), where kept is every bob[i] with
/// !drop[i], together with that set's ParentFingerprint — built from the
/// fingerprints in hand instead of re-hashing every child.
///
/// Preconditions: bob passes ValidateSetOfSets, and bob_fps[i] is
/// ChildFingerprint(bob[i]) for every kept i (dropped entries are unread).
///
/// One merge: Bob's kept children in order (checked with one O(s) pass;
/// an index sort when Bob's parent is unsorted) against the recovered
/// children, sorted in place, dropping equal neighbours. A recovered child
/// that is not strictly increasing is canonicalized and re-fingerprinted;
/// every other fingerprint is reused.
AssembledParent AssembleParent(const SetOfSets& bob,
                               std::span<const uint64_t> bob_fps,
                               const std::vector<bool>& drop,
                               std::vector<RecoveredChild> recovered,
                               const HashFamily& family);

/// d-hat: the bound on differing child sets, min(d, s) per Section 3.1.
size_t DHat(size_t d, const SsrParams& params);

}  // namespace setrec

#endif  // SETREC_CORE_PROTOCOL_H_
