#ifndef SETREC_CORE_CASCADING_PROTOCOL_H_
#define SETREC_CORE_CASCADING_PROTOCOL_H_

#include "core/encoding.h"
#include "core/protocol.h"

namespace setrec {

struct Rung;

/// Algorithm 2 of the paper ("Cascading IBLTs of IBLTs", Theorem 3.7 /
/// Corollary 3.8). Exploits that the total number of element changes is d —
/// so only O(1) children need Omega(d)-cell sketches, O(sqrt d) need
/// Omega(sqrt d) cells, and so on. Alice sends t = log2 min(d, h) outer
/// tables; table T_i holds (O(2^i)-cell child IBLT, hash) encodings in an
/// O(d / 2^i)-cell outer IBLT, plus a direct-encoding table T* when h <= d.
/// Bob walks the levels, recovering cheap children early and deleting them
/// from later (per-child more expensive, but sparser) tables; children
/// missed at one level are caught at the next. Within a level, each of
/// Alice's decoded child sketches is paired with Bob's differing children
/// closest first — ranked by how many partition-0 cells their child
/// sketches differ in (Iblt::RankFixed) — then with the empty set, as in
/// Algorithm 1; every partner is still tried, so the ranking changes only
/// how soon a child is recovered.
///
///   SSRK: 1 round, O(d log min(d,h) log u + d log s) bits,
///         O(n log min(d,h) + d-hat d log d-hat) time, success >= 2/3
///         per attempt (amplified by retries).
///   SSRU: O(log d) rounds by repeated doubling (Corollary 3.8).
///
/// Coins. Each attempt's outer tables T_i and T* are seeded by its rung.
/// The level child configs and the child (and parent) fingerprint family
/// come from the rung's child seed (AttemptLadder, core/split_party.h): on
/// the SSRU doubling ladder that is the first rung's seed for every rung,
/// and level i's child config is the same in every rung that has the
/// level, so each half writes each level's child blobs, its fingerprints
/// and (Bob) their index once per ladder (ChildCoins) instead of once per
/// rung. Each level salts its config's seed with the level, so a child
/// whose sketch fails at a reused level is caught by independent coins at
/// the larger level, or T*, the next rung adds. Under SSRK every trial
/// retries the same d, so each trial draws its child coins afresh from its
/// own seed, as the amplification needs.
class CascadingProtocol : public SetsOfSetsProtocol {
 public:
  explicit CascadingProtocol(const SsrParams& params) : params_(params) {}

  std::string Name() const override { return "cascade"; }

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
  /// What one half carries from attempt to attempt: the previous
  /// attempt's wire tables, retained under WireCodec::kSparse so a retry
  /// can send delta frames for any level whose config repeats
  /// (TableLineage). Both halves keep their own copy — Alice the tables she
  /// built, Bob the tables he parsed — and the two agree bit-for-bit
  /// whenever a config repeats, because an attempt table is a deterministic
  /// function of (sender set, config). Outer configs take each attempt's
  /// own seed, so none repeats across a ladder and these seed full frames
  /// only. Empty under kDense.
  struct AttemptTables {
    std::vector<Iblt> outers;
    std::optional<Iblt> star;
  };

  /// Builds and sends one attempt's cascade message (all t levels + T*);
  /// the verdict is received by the caller. Level configs derive from the
  /// shared params and the rung on both sides. `coins` is the half's
  /// ChildCoins, one slot per level, kept while rungs share a child seed.
  Task<Status> AttemptAlice(const SetOfSets& alice, Rung rung,
                            ChildCoins* coins, size_t* next,
                            AttemptTables* lineage, Channel* channel,
                            ProtocolContext* ctx) const;
  Task<Result<SetOfSets>> AttemptBob(const SetOfSets& bob, Rung rung,
                                     ChildCoins* coins, size_t* next,
                                     AttemptTables* lineage,
                                     bool* peer_aborted, Channel* channel,
                                     ProtocolContext* ctx) const;

  SsrParams params_;
};

}  // namespace setrec

#endif  // SETREC_CORE_CASCADING_PROTOCOL_H_
