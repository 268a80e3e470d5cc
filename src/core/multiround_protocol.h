#ifndef SETREC_CORE_MULTIROUND_PROTOCOL_H_
#define SETREC_CORE_MULTIROUND_PROTOCOL_H_

#include "core/protocol.h"
#include "core/split_party.h"

namespace setrec {

/// The multi-round protocol of Section 3.3 (Theorems 3.9 and 3.10). Trades
/// rounds for communication:
///
///  1. Alice sends an IBLT of her child-set fingerprints; Bob decodes it
///     against his own to learn which children differ on each side.
///  2. Bob sends, for each of his differing children, a compact l0
///     set-difference estimator of its elements (Theorem 3.1).
///  3. Alice matches each of her differing children to the most similar of
///     Bob's (smallest estimated difference d_i, the first such on a tie)
///     and sends a per-child payload: a characteristic-polynomial
///     transcript when d_i < sqrt(d) (Theorem 2.3), an O(d_i)-cell IBLT for
///     larger differences (Corollary 2.2), or the raw child when it is
///     small enough that sketching would cost more. Each pair's estimate
///     is L0Estimator::PairEstimate: one pass over the two estimators'
///     words with no merged copy, each replica's corrected estimate read
///     from one table built per attempt.
///  4. Bob applies each payload to the matched child and verifies per-child
///     and whole-parent fingerprints.
///
///   SSRK: 3 rounds. SSRU: 4 rounds (Bob first sends an l0 estimator over
///   child fingerprints so Alice can size the fingerprint IBLT).
class MultiRoundProtocol : public SetsOfSetsProtocol {
 public:
  explicit MultiRoundProtocol(const SsrParams& params) : params_(params) {}

  std::string Name() const override { return "multiround"; }

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
  /// One full attempt of Alice's side (msg1 hashes, msg2 in, msg3 payloads,
  /// msg4 verdict in). Mid-attempt retriable failures on either side travel
  /// as verdict frames in the failing party's next slot, so both parties
  /// fall through to the next attempt in lockstep; `*end` reports how the
  /// attempt concluded (see split_party.h).
  /// `fp_lineage` is the previous attempt's fingerprint table, retained by
  /// the trial loop under WireCodec::kSparse so a doubling retry whose
  /// fingerprint config repeats sends a delta frame (TableLineage) instead
  /// of re-sending unchanged estimator state. Alice stores the table she
  /// built, Bob the table he parsed; the two agree whenever a config
  /// repeats because the table is a deterministic function of (Alice's
  /// set, config). Stays empty under kDense.
  /// The ladder writes the rung's d-hat in front of msg1 on an estimated
  /// SSRU rung.
  Task<Status> AttemptAlice(const SetOfSets& alice, Rung rung,
                            const AttemptLadder& ladder, size_t* next,
                            std::optional<Iblt>* fp_lineage, AttemptEnd* end,
                            Channel* channel, ProtocolContext* ctx) const;
  /// Bob's side of one attempt, reading the rung's d-hat from the msg1
  /// prefix on an estimated SSRU rung. Sends the msg4 verdict itself (ok or
  /// fail).
  Task<Result<SetOfSets>> AttemptBob(const SetOfSets& bob, Rung rung,
                                     const AttemptLadder& ladder,
                                     size_t* next,
                                     std::optional<Iblt>* fp_lineage,
                                     AttemptEnd* end, Channel* channel,
                                     ProtocolContext* ctx) const;

  SsrParams params_;
};

}  // namespace setrec

#endif  // SETREC_CORE_MULTIROUND_PROTOCOL_H_
