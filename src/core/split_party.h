#ifndef SETREC_CORE_SPLIT_PARTY_H_
#define SETREC_CORE_SPLIT_PARTY_H_

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/build_context.h"
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

// --- Shared trial drivers -------------------------------------------------
//
// The per-protocol trial loops — seed formula, verdict exchange, doubling
// schedule, "... failed:" Exhausted text — used to be duplicated between
// each protocol's Alice and Bob halves, and the two copies had to stay in
// wire lockstep by hand. The drivers below hoist that loop once; a protocol
// half supplies only its per-attempt callable plus three small hooks:
//
//   seed_for(trial)  -> uint64_t   the protocol's historical seed formula,
//                                  bit-exact (wire compatibility);
//   attempt(...)     -> Task<...>  one attempt's data phase;
//   on_retry()                     the doubling/clamping schedule applied
//                                  after a retriable failure (no-op when
//                                  retry state rides on the wire instead).
//
// Because Alice's and Bob's loops instantiate the SAME driver, the halves
// cannot drift out of lockstep: the verdict slots, abort slots and retry
// transitions are structurally shared. Two driver shapes exist:
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
// The hook callables are copied into the driver's coroutine frame; their
// reference captures point into the protocol half's own frame, which stays
// alive (suspended, not destroyed) while it awaits the driver.

/// The seed of trial `trial` of a doubling protocol (iblt2, cascade;
/// `attempt_tag` names it): SSRK trials (`known_d` set) count up from the
/// tag, the rungs of an SSRU doubling ladder from the tag + 1000. Both
/// halves derive it from the shared params, so it never crosses the wire.
uint64_t DoublingTrialSeed(const SsrParams& params, uint64_t attempt_tag,
                           std::optional<size_t> known_d, int trial);

/// The seed of an attempt's child coins: its child sketch configs and the
/// family of its child and parent fingerprints. An SSRU ladder draws them
/// once, from its first rung's seed, so a later rung sketches every child
/// config it shares with an earlier one with the same coins and each half
/// writes those child blobs once (ChildCoins, core/encoding.h). The ladder
/// stays sound because each rung's outer tables (and cascade's T*) keep
/// `attempt_seed`, and a child that one child config fails to decode is
/// caught by the larger child config a later rung adds, whose seed is
/// salted apart from every smaller config's (iblt2 by its size, cascade
/// by its level). An SSRK trial (`known_d` set) draws them from its own
/// `attempt_seed`: its retries repeat one d, and only fresh child coins
/// amplify the per-attempt success probability. Only fail verdicts no
/// honest peer of this build gives (a hostile peer's, or a peer's that
/// runs other coins) drive a ladder to the MaxWireDHat clamp, where its
/// rungs repeat one d too; there only the outer coins stay fresh.
uint64_t ChildCoinSeed(const SsrParams& params, uint64_t attempt_tag,
                       std::optional<size_t> known_d, uint64_t attempt_seed);

/// Alice's trial loop for single-data-message protocols. `attempt(trial,
/// seed)` sends Alice's attempt message (returning a failed Status only
/// for local errors, which the driver converts into an abort in her slot).
template <typename SeedFn, typename AttemptFn, typename RetryFn>
Task<Status> RunAliceTrials(ProtocolContext* ctx, Channel* channel,
                            size_t* next, int trials, SeedFn seed_for,
                            AttemptFn attempt, RetryFn on_retry,
                            std::string exhausted_prefix) {
  Status last = DecodeFailure("no attempts made");
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = seed_for(trial);
    Status sent = co_await attempt(trial, seed);
    if (!sent.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, sent);
    }
    Result<AttemptVerdict> verdict =
        co_await ReceiveVerdict(ctx, channel, next);
    if (!verdict.ok()) co_return verdict.status();
    if (verdict.value().ok) co_return Status::Ok();
    last = verdict.value().status;
    ctx->OnRetryRound();
    on_retry();
  }
  co_return Exhausted(exhausted_prefix + last.ToString());
}

/// Bob's trial loop for single-data-message protocols. `attempt(trial,
/// seed, peer_aborted)` receives Alice's message and tries the recovery;
/// the driver sends the verdict (ok / retriable failure), aborts on parse
/// errors, and reports the outcome with per-trial attempt accounting.
template <typename SeedFn, typename AttemptFn, typename RetryFn>
Task<Result<SsrOutcome>> RunBobTrials(ProtocolContext* ctx, Channel* channel,
                                      size_t* next, int trials,
                                      SeedFn seed_for, AttemptFn attempt,
                                      RetryFn on_retry,
                                      std::string exhausted_prefix) {
  Status last = DecodeFailure("no attempts made");
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = seed_for(trial);
    bool peer_aborted = false;
    Result<SetOfSets> recovered = co_await attempt(trial, seed,
                                                   &peer_aborted);
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
    on_retry();
  }
  co_return Exhausted(exhausted_prefix + last.ToString());
}

/// Alice's trial loop for protocols whose attempts exchange verdicts
/// inside the attempt (multiround): `attempt(trial, seed, end)` reports
/// how it ended; retriable failures have already crossed the wire.
template <typename SeedFn, typename AttemptFn, typename RetryFn>
Task<Status> RunAliceEndTrials(ProtocolContext* ctx, int trials,
                               SeedFn seed_for, AttemptFn attempt,
                               RetryFn on_retry,
                               std::string exhausted_prefix) {
  Status last = DecodeFailure("no attempts made");
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = seed_for(trial);
    AttemptEnd end = AttemptEnd::kRetry;
    Status s = co_await attempt(trial, seed, &end);
    if (end == AttemptEnd::kOk) co_return Status::Ok();
    if (end == AttemptEnd::kTerminal) co_return s;
    last = std::move(s);
    ctx->OnRetryRound();
    on_retry();
  }
  co_return Exhausted(exhausted_prefix + last.ToString());
}

/// Bob-side counterpart of RunAliceEndTrials.
template <typename SeedFn, typename AttemptFn, typename RetryFn>
Task<Result<SsrOutcome>> RunBobEndTrials(ProtocolContext* ctx,
                                         Channel* channel, int trials,
                                         SeedFn seed_for, AttemptFn attempt,
                                         RetryFn on_retry,
                                         std::string exhausted_prefix) {
  Status last = DecodeFailure("no attempts made");
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = seed_for(trial);
    AttemptEnd end = AttemptEnd::kRetry;
    Result<SetOfSets> recovered = co_await attempt(trial, seed, &end);
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
    on_retry();
  }
  co_return Exhausted(exhausted_prefix + last.ToString());
}

}  // namespace setrec

#endif  // SETREC_CORE_SPLIT_PARTY_H_
