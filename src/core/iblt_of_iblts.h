#ifndef SETREC_CORE_IBLT_OF_IBLTS_H_
#define SETREC_CORE_IBLT_OF_IBLTS_H_

#include "core/protocol.h"

namespace setrec {

class ChildCoins;
struct Rung;

/// Algorithm 1 of the paper ("IBLTs of IBLTs", Theorem 3.5 / Corollary
/// 3.6). Each child set is encoded as an O(d)-cell child IBLT plus a child
/// fingerprint; the encodings are reconciled through an O(d-hat)-cell outer
/// IBLT. Bob decodes the outer table, then recovers each of Alice's
/// differing children by pairing her child IBLT with his own differing
/// children's IBLTs until one decodes and fingerprint-verifies. He tries
/// them closest first: ranking a partner costs one pass over the m/k
/// partition-0 cells of the two child sketches (Iblt::RankFixed),
/// and a true partner differs in at most as many of them as the two
/// children differ in elements, while an unrelated child differs in nearly
/// all, so the first decode usually succeeds. Each pairing decodes the two
/// sketches straight from their blob bytes, with no table
/// (Iblt::DecodeFixedDifferenceU64View). Every partner is still tried
/// before the empty set, so the worst case stays O(d-hat^2) pairings of
/// O(d) work each.
///
///   SSRK: 1 round,       O(d-hat * d log u + d-hat log s) bits,
///                        O(n + d-hat^2 d) time.
///   SSRU: O(log d) rounds by repeated doubling of d (Corollary 3.6).
///
/// Coins. Each attempt's outer table is seeded by its rung. The child
/// sketch config and the child (and parent) fingerprint family come from
/// the rung's child seed (AttemptLadder, core/split_party.h): on the SSRU
/// doubling ladder that is the first rung's seed for every rung, so d = 1,
/// 2 and 4, which share the 16-cell child config, sketch each child with
/// the same coins, and each half writes those blobs, its fingerprints and
/// (Bob) their index once per ladder (ChildCoins). Each larger child table
/// (d = 8, 16, ...) salts its seed with its size, so a child sketch that
/// fails in the 16-cell table is caught by an independent one once d = 8
/// grows the table. Under SSRK every trial retries the same d, so each
/// trial draws its child coins afresh from its own seed, as the
/// amplification needs.
class IbltOfIbltsProtocol : public SetsOfSetsProtocol {
 public:
  explicit IbltOfIbltsProtocol(const SsrParams& params) : params_(params) {}

  std::string Name() const override { return "iblt2"; }

  Task<Status> ReconcileAsyncAlice(const SetOfSets& alice,
                                   std::optional<size_t> known_d,
                                   Channel* channel,
                                   ProtocolContext* ctx) const override;
  Task<Result<SsrOutcome>> ReconcileAsyncBob(const SetOfSets& bob,
                                             std::optional<size_t> known_d,
                                             Channel* channel,
                                             ProtocolContext* ctx)
      const override;

 private:
  /// Builds and sends one attempt's outer-table message; the verdict is
  /// received by the caller. Both sides derive every table from the rung
  /// (its d, first d, d-hat, seed and child seed), so nothing extra crosses
  /// the wire. `coins` is the half's ChildCoins, which keeps what it wrote
  /// while rungs share a child seed.
  Task<Status> AttemptAlice(const SetOfSets& alice, Rung rung,
                            ChildCoins* coins, size_t* next, Channel* channel,
                            ProtocolContext* ctx) const;
  Task<Result<SetOfSets>> AttemptBob(const SetOfSets& bob, Rung rung,
                                     ChildCoins* coins, size_t* next,
                                     bool* peer_aborted, Channel* channel,
                                     ProtocolContext* ctx) const;

  SsrParams params_;
};

}  // namespace setrec

#endif  // SETREC_CORE_IBLT_OF_IBLTS_H_
