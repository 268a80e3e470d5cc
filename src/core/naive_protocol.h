#ifndef SETREC_CORE_NAIVE_PROTOCOL_H_
#define SETREC_CORE_NAIVE_PROTOCOL_H_

#include "core/protocol.h"

namespace setrec {

class AttemptLadder;
struct Rung;

/// The naive protocol of Section 3.1 (Theorems 3.3 and 3.4): ignore that
/// items are sets and treat each child set as an atomic element of a huge
/// universe. Each child is serialized into a fixed-width blob of
/// O(h log u) bits and the blobs are reconciled with a single blob-keyed
/// IBLT of O(d-hat) cells.
///
///   SSRK: 1 round,  O(d-hat * h log u) bits, O(n) time.
///   SSRU: 2 rounds (an l0 difference estimator over child fingerprints
///         first), same bits, O(n log d-hat) time.
class NaiveProtocol : public SetsOfSetsProtocol {
 public:
  explicit NaiveProtocol(const SsrParams& params) : params_(params) {}

  std::string Name() const override { return "naive"; }

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
  /// Builds and sends one attempt message (the ladder's d-hat prefix on an
  /// estimated SSRU rung, parent fingerprint, blob IBLT); the verdict is
  /// received by the caller.
  Task<Status> AttemptAlice(const SetOfSets& alice, Rung rung,
                            const AttemptLadder& ladder, size_t* next,
                            Channel* channel, ProtocolContext* ctx) const;
  /// Receives one attempt message and tries to recover Alice's set, reading
  /// the rung's d-hat from the message's prefix on an estimated SSRU rung.
  /// A peer abort sets `*peer_aborted` and returns the carried status.
  Task<Result<SetOfSets>> AttemptBob(const SetOfSets& bob, Rung rung,
                                     const AttemptLadder& ladder,
                                     size_t* next, bool* peer_aborted,
                                     Channel* channel,
                                     ProtocolContext* ctx) const;

  SsrParams params_;
};

}  // namespace setrec

#endif  // SETREC_CORE_NAIVE_PROTOCOL_H_
