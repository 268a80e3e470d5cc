#ifndef SETREC_CORE_SPLIT_PARTY_H_
#define SETREC_CORE_SPLIT_PARTY_H_

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/protocol.h"
#include "core/task.h"
#include "transport/channel.h"
#include "util/serialization.h"
#include "util/status.h"

namespace setrec {

// Control frames shared by the split-party halves of every set-of-sets
// protocol. The one-coroutine simulation could share knowledge for free —
// whether Bob's recovery verified, what d-hat Alice estimated — but two real
// parties must put it on the wire. Two frame kinds cover all of it:
//
//  * Verdict ("ack"): ends an attempt. Bob reports ok (protocol done) or a
//    retriable failure (both parties move to the next attempt in lockstep).
//    Alice sends one in place of a data message when SHE hits a retriable
//    failure mid-attempt (multiround payload matching), steering both sides
//    to the next attempt without breaking turn-taking.
//  * Abort ("!abort"): terminal. Carries the sender's exact Status; the
//    receiver returns it verbatim, so both halves (and therefore the
//    composed both-parties call) report identical errors.
//
// Turn-taking is strict half-duplex: a party sends only on its own turn,
// and error exits happen only as a frame in the sender's own slot. That
// keeps the transcript a deterministic function of (inputs, seeds) on every
// execution path — direct call, loopback service session, or socket — which
// is what the bit-identical-transcript guarantee rests on.

inline constexpr const char kAbortLabel[] = "!abort";
inline constexpr const char kVerdictLabel[] = "ack";

/// Ceiling on a wire-carried d-hat (SSRU estimator modes prefix Alice's
/// estimate to her attempt message so Bob can derive the same IBLT
/// configs). A value above it is a parse error, not a huge table.
inline constexpr uint64_t kMaxWireDHat = 1ull << 22;

/// Largest d-hat a receiver accepts on the wire for tables of
/// `key_width`-byte keys: the implied table must stay under a sane memory
/// ceiling (ForDifference builds ~2.2 * (2 * d_hat) cells of
/// (key_width + header) bytes). SENDERS must clamp what they put on the
/// wire to this same bound (estimator-derived d-hats double on retry and
/// would otherwise outgrow the gate on honest runs).
inline uint64_t MaxWireDHat(size_t key_width) {
  constexpr uint64_t kMaxTableBytes = 1ull << 30;
  const uint64_t per_cell = static_cast<uint64_t>(key_width) + 16;
  return std::min(kMaxWireDHat, kMaxTableBytes / (5 * per_cell));
}

/// Receiver-side gate: a corrupted or hostile size prefix must surface as
/// kParseError, not as a bad_alloc thrown into a coroutine (whose
/// unhandled_exception is std::terminate).
inline bool WireDHatPlausible(uint64_t d_hat, size_t key_width) {
  return d_hat != 0 && d_hat <= MaxWireDHat(key_width);
}

/// Serializes a Status (code byte + length-prefixed message text).
void PutStatusPayload(const Status& status, ByteWriter* writer);
/// Inverse; false on malformed input. Control frames only carry errors, so
/// a payload encoding OK is also malformed.
bool GetStatusPayload(ByteReader* reader, Status* out);

inline bool IsAbortMessage(const Channel::Message& m) {
  return m.label == kAbortLabel;
}
inline bool IsVerdictMessage(const Channel::Message& m) {
  return m.label == kVerdictLabel;
}

/// The peer's carried status when `m` is an abort frame; nullopt otherwise.
std::optional<Status> PeerAbort(const Channel::Message& m);

/// Sends an abort frame in the caller's turn slot and returns `status` (so
/// error exits read `co_return co_await SendAbort(...)`).
Task<Status> SendAbort(ProtocolContext* ctx, Channel* channel, Party from,
                       Status status);

struct AttemptVerdict {
  bool ok = false;
  /// The retriable failure when !ok.
  Status status;
};

/// Sends an attempt verdict in the caller's turn slot and advances the
/// transcript cursor (asserting the index discipline); `attempt_status`
/// OK means the attempt succeeded. Returns `attempt_status` unchanged.
Task<Status> SendVerdict(ProtocolContext* ctx, Channel* channel, Party from,
                         Status attempt_status, size_t* next);

/// Receives the peer's verdict at `*next` and advances the cursor. Any
/// terminal outcome — a peer abort (surfacing its carried status) or a
/// malformed frame — is the error case; an OK result is the parsed
/// verdict (ok, or a retriable failure both parties move past).
Task<Result<AttemptVerdict>> ReceiveVerdict(ProtocolContext* ctx,
                                            Channel* channel, size_t* next);

/// Parses a verdict frame's payload; kParseError on malformed input.
Result<AttemptVerdict> ParseVerdict(const Channel::Message& m);

/// How one attempt of a multi-message protocol half ended. kRetry means the
/// failure has already been communicated (a fail verdict was sent or
/// received) and both parties proceed to the next attempt in lockstep;
/// kTerminal means the protocol is over (an abort was sent or received, or
/// the peer is broken) and the status should surface unchanged.
enum class AttemptEnd { kOk, kRetry, kTerminal };

// --- The attempt ladder and the shared trial drivers ----------------------
//
// Section 3 handles d in one of three ways, and every protocol half climbs
// the matching ladder of attempts (AttemptLadder):
//
//  * Trials (SSRK, all four protocols). d is known, floored at 1: whole
//    attempts repeat on fresh public coins, the amplification at the end of
//    Section 3.2. max_attempts rungs, rung i seeded attempt_tag + i, each
//    with child coins of its own.
//  * Doubling (SSRU iblt2 and cascade; Corollaries 3.6 and 3.8). d starts
//    at 1 or 2 and doubles after each fail verdict. 40 rungs, rung i seeded
//    attempt_tag + 1000 + i; every rung takes its child coins from the
//    first rung's seed, so a half writes each child config's sketches once
//    per ladder (ChildCoins, core/encoding.h).
//  * Estimated (SSRU naive and multiround; Theorems 3.4 and 3.10). Bob
//    opens with an l0 estimator over his child fingerprints; Alice merges
//    hers, takes d-hat = max(estimate_slack * estimate / 2, 2), writes it
//    in front of each attempt message (Bob checks it with
//    WireDHatPlausible) and doubles it after each fail verdict.
//    max_attempts rungs, seeded as trials.
//
// Doubled d or d-hat stops at MaxWireDHat of the protocol's clamp width, so
// a peer's fail verdicts cannot grow tables without bound. Bob opens an
// estimated ladder, Alice every other (with her first attempt message). An
// invalid set aborts in its half's first slot when that half opens, else
// right after the opening message arrives (the opener's abort wins).
//
// A protocol supplies a LadderSpec and one attempt (build or recover one
// message); the drivers below climb the ladder: they open it, run one
// attempt per rung, exchange what ends it, and build the Exhausted text
// only when the ladder runs out. Alice's and Bob's loops instantiate the
// same driver over the same rungs, so their verdict slots, abort slots and
// retry transitions cannot drift apart. Two driver shapes exist:
//
//  * RunAliceTrials / RunBobTrials — the single-data-message protocols
//    (naive, iblt2, cascade). The DRIVER owns the verdict exchange: Alice
//    sends her attempt message then receives Bob's verdict; Bob runs his
//    attempt then sends the verdict (aborting on parse errors, which a
//    replay cannot fix).
//  * RunAliceEndTrials / RunBobEndTrials — multi-message attempts
//    (multiround) whose verdict exchange is interleaved with the attempt's
//    own rounds; the attempt reports how it ended via AttemptEnd.
//
// The attempt callable is copied into the driver's coroutine frame; its
// reference captures point into the protocol half's own frame (the ladder
// included), which stays alive, suspended, while it awaits the driver.

/// How a protocol climbs its ladder when d is unknown (SSRU).
enum class LadderShape { kDoubling, kEstimated };

/// What a protocol supplies to its ladder.
struct LadderSpec {
  /// Starts the Exhausted text, "<name> failed: <last failure>"; a
  /// doubling protocol's text names its mode ("<name> (SSRU) failed: ...").
  const char* name = "";
  uint64_t attempt_tag = 0;  // Salts every rung's seed.
  LadderShape shape = LadderShape::kDoubling;
  size_t first_d = 1;  // Doubling: d of the first SSRU rung.
  /// Doubled d or d-hat stops at MaxWireDHat(clamp_width).
  size_t clamp_width = 8;
  /// Estimated: the opening estimator is seeded DeriveSeed(params.seed,
  /// estimator_tag) and counts child fingerprints of the family
  /// HashFamily(that seed, fingerprint_tag); Bob's message is labelled
  /// `opener_label`.
  uint64_t estimator_tag = 0;
  uint64_t fingerprint_tag = 0;
  const char* opener_label = "";
};

/// One rung of a ladder: what an attempt derives its tables and coins from.
/// Both halves derive the same rungs from their shared params, except an
/// estimated ladder's d-hat, which crosses the wire.
struct Rung {
  int trial = 0;  // 0-based attempt index.
  /// A known d floored at 1, or the doubling ladder's d. 0 on an estimated
  /// SSRU ladder, whose d-hat rides in front of Alice's attempt message
  /// (carries_d_hat).
  size_t d = 0;
  size_t first_d = 0;  // d of the first rung.
  /// max(DHat(d), 1) where d is set; on an estimated SSRU ladder Alice's
  /// doubled estimate (0 on Bob's side until GetDHat reads her prefix).
  size_t d_hat = 0;
  uint64_t seed = 0;  // The attempt's public coins.
  /// The coins of the child sketches and the child and parent fingerprints:
  /// the first rung's seed on a doubling SSRU ladder, else `seed`. A ladder
  /// stays sound because each rung's outer tables keep `seed`, and a child
  /// one child config fails to decode is caught by the larger config a
  /// later rung adds, salted apart from every smaller one. SSRK trials
  /// repeat one d, so only fresh child coins amplify them.
  uint64_t child_seed = 0;

  bool carries_d_hat() const { return d == 0; }
};

/// One half's ladder: the rungs, the opening, the d-hat prefix, the half's
/// child coins and the Exhausted text.
class AttemptLadder {
 public:
  /// `params` must outlive the ladder.
  AttemptLadder(const SsrParams& params, std::optional<size_t> known_d,
                const LadderSpec& spec)
      : params_(&params), known_d_(known_d), spec_(spec) {}

  /// 40 on a doubling SSRU ladder, else max_attempts.
  int rungs() const;

  /// Rung `trial`: a pure function of the params, the known d, the spec
  /// and, on an estimated SSRU ladder, the estimate Alice's opening took.
  Rung At(int trial) const;

  /// Alice's opening on an estimated SSRU ladder: the first rung's d-hat
  /// from the merged estimate (both sides' differing children, about 2
  /// d-hat), floored at 2 and clamped.
  void TakeEstimate(uint64_t estimate);

  /// Before the first rung: validates the half's set (Alice's through the
  /// context's memo) and, on an estimated SSRU ladder, sends Bob's
  /// estimator or merges it into Alice's. An error is terminal and has
  /// already crossed the wire (this half's abort, or the peer's).
  Task<Status> OpenAlice(const SetOfSets& alice, Channel* channel,
                         ProtocolContext* ctx, size_t* next);
  Task<Status> OpenBob(const SetOfSets& bob, Channel* channel,
                       ProtocolContext* ctx, size_t* next);

  /// Alice writes the rung's d-hat in front of her attempt message when the
  /// rung carries it; Bob reads it into `rung`, false when it is missing or
  /// implausible at the clamp width (WireDHatPlausible).
  void PutDHat(const Rung& rung, ByteWriter* writer) const;
  [[nodiscard]] bool GetDHat(ByteReader* reader, Rung* rung) const;

  /// The half's child coins (iblt2, cascade).
  ChildCoins* coins() { return &coins_; }

  /// Whether rung `trial` + 1 exists and keeps rung `trial`'s child seed.
  bool KeepsChildCoins(int trial) const;

  /// Called when rung `trial`'s data phase ends, before the half exchanges
  /// its verdict: releases the child coins unless KeepsChildCoins(trial).
  void EndDataPhase(int trial);

  /// The terminal status once every rung failed, `last` the last failure.
  Status Exhausted(const Status& last) const;

 private:
  bool BobOpens() const;

  const SsrParams* params_;
  std::optional<size_t> known_d_;
  LadderSpec spec_;
  size_t opening_d_hat_ = 0;  // Set by TakeEstimate.
  ChildCoins coins_;
};

/// Alice's trial loop for single-data-message protocols. `attempt(rung)`
/// sends Alice's attempt message (returning a failed Status only for local
/// errors, which the driver converts into an abort in her slot).
template <typename AttemptFn>
Task<Status> RunAliceTrials(AttemptLadder* ladder, const SetOfSets& alice,
                            Channel* channel, ProtocolContext* ctx,
                            size_t* next, AttemptFn attempt) {
  if (Status open = co_await ladder->OpenAlice(alice, channel, ctx, next);
      !open.ok()) {
    co_return open;
  }
  Status last;
  for (int trial = 0; trial < ladder->rungs(); ++trial) {
    const Rung rung = ladder->At(trial);
    Status sent = co_await attempt(rung);
    ladder->EndDataPhase(trial);
    if (!sent.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, sent);
    }
    Result<AttemptVerdict> verdict =
        co_await ReceiveVerdict(ctx, channel, next);
    if (!verdict.ok()) co_return verdict.status();
    if (verdict.value().ok) co_return Status::Ok();
    last = verdict.value().status;
    ctx->OnRetryRound();
  }
  co_return ladder->Exhausted(last);
}

/// Bob's trial loop for single-data-message protocols. `attempt(rung,
/// peer_aborted)` receives Alice's message and tries the recovery; the
/// driver sends the verdict (ok / retriable failure), aborts on parse
/// errors, and reports the outcome with per-trial attempt accounting.
template <typename AttemptFn>
Task<Result<SsrOutcome>> RunBobTrials(AttemptLadder* ladder,
                                      const SetOfSets& bob, Channel* channel,
                                      ProtocolContext* ctx, size_t* next,
                                      AttemptFn attempt) {
  if (Status open = co_await ladder->OpenBob(bob, channel, ctx, next);
      !open.ok()) {
    co_return open;
  }
  Status last;
  for (int trial = 0; trial < ladder->rungs(); ++trial) {
    const Rung rung = ladder->At(trial);
    bool peer_aborted = false;
    Result<SetOfSets> recovered = co_await attempt(rung, &peer_aborted);
    ladder->EndDataPhase(trial);
    if (peer_aborted) co_return recovered.status();
    if (recovered.ok()) {
      co_await SendVerdict(ctx, channel, Party::kBob, Status::Ok(), next);
      SsrOutcome outcome;
      outcome.recovered = std::move(recovered).value();
      outcome.stats = {channel->rounds(), channel->total_bytes(), trial + 1};
      co_return outcome;
    }
    last = recovered.status();
    ctx->OnDecodeFailure();
    if (last.code() == StatusCode::kParseError) {
      co_return co_await SendAbort(ctx, channel, Party::kBob, last);
    }
    co_await SendVerdict(ctx, channel, Party::kBob, last, next);
    ctx->OnRetryRound();
  }
  co_return ladder->Exhausted(last);
}

/// Alice's trial loop for protocols whose attempts exchange verdicts
/// inside the attempt (multiround): `attempt(rung, end)` reports how it
/// ended; retriable failures have already crossed the wire.
template <typename AttemptFn>
Task<Status> RunAliceEndTrials(AttemptLadder* ladder, const SetOfSets& alice,
                               Channel* channel, ProtocolContext* ctx,
                               size_t* next, AttemptFn attempt) {
  if (Status open = co_await ladder->OpenAlice(alice, channel, ctx, next);
      !open.ok()) {
    co_return open;
  }
  Status last;
  for (int trial = 0; trial < ladder->rungs(); ++trial) {
    const Rung rung = ladder->At(trial);
    AttemptEnd end = AttemptEnd::kRetry;
    Status s = co_await attempt(rung, &end);
    ladder->EndDataPhase(trial);
    if (end == AttemptEnd::kOk) co_return Status::Ok();
    if (end == AttemptEnd::kTerminal) co_return s;
    last = std::move(s);
    ctx->OnRetryRound();
  }
  co_return ladder->Exhausted(last);
}

/// Bob-side counterpart of RunAliceEndTrials.
template <typename AttemptFn>
Task<Result<SsrOutcome>> RunBobEndTrials(AttemptLadder* ladder,
                                         const SetOfSets& bob,
                                         Channel* channel,
                                         ProtocolContext* ctx, size_t* next,
                                         AttemptFn attempt) {
  if (Status open = co_await ladder->OpenBob(bob, channel, ctx, next);
      !open.ok()) {
    co_return open;
  }
  Status last;
  for (int trial = 0; trial < ladder->rungs(); ++trial) {
    const Rung rung = ladder->At(trial);
    AttemptEnd end = AttemptEnd::kRetry;
    Result<SetOfSets> recovered = co_await attempt(rung, &end);
    ladder->EndDataPhase(trial);
    if (end == AttemptEnd::kTerminal) co_return recovered.status();
    if (end == AttemptEnd::kOk) {
      SsrOutcome outcome;
      outcome.recovered = std::move(recovered).value();
      outcome.stats = {channel->rounds(), channel->total_bytes(), trial + 1};
      co_return outcome;
    }
    last = recovered.status();
    ctx->OnDecodeFailure();
    ctx->OnRetryRound();
  }
  co_return ladder->Exhausted(last);
}

}  // namespace setrec

#endif  // SETREC_CORE_SPLIT_PARTY_H_
