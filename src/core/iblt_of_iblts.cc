#include "core/iblt_of_iblts.h"

#include <algorithm>
#include <cassert>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {
constexpr uint64_t kAttemptTag = 0x69626c32ull;  // "ibl2"
constexpr int kMaxDoublings = 40;  // SSRU: d = 1, 2, 4, ... (Corollary 3.6).

/// Child/outer table configs for one attempt, derived identically by both
/// parties from shared knowledge (params, d, d_hat, the attempt's seed and
/// its child seed, and `first_d`, the d of the run's first attempt).
struct AttemptConfigs {
  IbltConfig child;
  IbltConfig outer;
};

AttemptConfigs MakeConfigs(size_t d, size_t first_d, size_t d_hat,
                           uint64_t seed, uint64_t child_seed) {
  AttemptConfigs configs;
  // The child table's seed is salted with the cells it has grown past the
  // run's first child table, so an SSRU ladder's rungs share coins only
  // while they share a table size (d = 1, 2 and 4), and each larger table
  // draws its own: under one seed, two keys that share a cell in a smaller
  // table would be likelier to share one in the larger, as Cell() only
  // reduces one mix by the partition width. SSRK trials never grow the
  // table, so their salt is 0.
  configs.child = IbltConfig::ForDifference(d, 0, /*key_width=*/8);
  const size_t grown =
      configs.child.cells - IbltConfig::ForDifference(first_d, 0, 8).cells;
  configs.child.seed = DeriveSeed(child_seed, /*tag=*/0x63686c64ull + grown);
  configs.outer = IbltConfig::ForDifference(
      2 * d_hat, seed, ChildIbltBlobWidth(configs.child));
  return configs;
}

}  // namespace

Task<Status> IbltOfIbltsProtocol::AttemptAlice(
    const SetOfSets& alice, size_t d, size_t first_d, size_t d_hat,
    uint64_t seed, uint64_t child_seed, ChildCoins* coins, size_t* next,
    Channel* channel, ProtocolContext* ctx) const {
  HashFamily fp_family(child_seed, /*tag=*/0x66703262ull);
  const AttemptConfigs configs =
      MakeConfigs(d, first_d, d_hat, seed, child_seed);
  coins->Begin(alice, fp_family, /*slots=*/1);

  // Encode every child, insert encodings into the outer table. The child
  // blobs, packed into one buffer the first time the ladder sketches this
  // child config, land in the outer table as one batch (deferred to the
  // planner under the service). The whole message is memoized across
  // sessions sharing Alice's set.
  uint64_t cache_key = ProtocolCacheKey(
      ctx->SetIdentity(&alice),
      {kAttemptTag, d, first_d, d_hat, seed, child_seed,
       static_cast<uint64_t>(params_.wire_codec)});
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    const uint8_t* packed = coins->Blobs(0, configs.child);
    Iblt outer(configs.outer);
    ctx->QueueInsertBytes(&outer, packed, alice.size());
    co_await ctx->FlushBuilds();
    // ParentFingerprint(alice), from the child fingerprints in hand.
    writer->PutU64(SetFingerprint(coins->Fingerprints(), fp_family));
    outer.SerializeWith(params_.wire_codec, writer);
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "iblt2-outer", build);
  if (!sent.ok()) co_return sent.status();
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;
  co_return Status::Ok();
}

Task<Result<SetOfSets>> IbltOfIbltsProtocol::AttemptBob(
    const SetOfSets& bob, size_t d, size_t first_d, size_t d_hat,
    uint64_t seed, uint64_t child_seed, ChildCoins* coins, size_t* next,
    bool* peer_aborted, Channel* channel, ProtocolContext* ctx) const {
  HashFamily fp_family(child_seed, /*tag=*/0x66703262ull);
  const AttemptConfigs configs =
      MakeConfigs(d, first_d, d_hat, seed, child_seed);
  const IbltConfig& child_config = configs.child;
  const IbltConfig& outer_config = configs.outer;
  coins->Begin(bob, fp_family, /*slots=*/1);
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kAttemptTag, d, first_d, d_hat, seed, child_seed,
       static_cast<uint64_t>(params_.wire_codec)});

  const Channel::Message& m = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m)) {
    *peer_aborted = true;
    co_return *abort;
  }
  ByteReader reader(m.payload);
  uint64_t alice_parent_fp = 0;
  if (!reader.GetU64(&alice_parent_fp)) {
    co_return ParseError("iblt2 message truncated");
  }
  Result<Iblt> received = ctx->ParseTableMemo(TableMemoKey(cache_key, 0),
                                              &reader, outer_config,
                                              params_.wire_codec);
  if (!received.ok()) co_return received.status();
  Iblt remote = std::move(received).value();

  // Bob's own encodings, packed the same way as Alice's (once per child
  // config in a ladder), erased from the outer table as one batch.
  const uint8_t* bob_blobs = coins->Blobs(0, child_config);
  ctx->QueueEraseBytes(&remote, bob_blobs, bob.size());
  co_await ctx->FlushBuilds();

  // Decoded negatives map back to Bob's concrete children through the
  // fingerprints every blob ends in, confirmed against Bob's packed blobs.
  const ChildFingerprintIndex& bob_index = coins->Index();

  // Two pooled scratches: slot 0 owns the outer-table decode views, which
  // must stay valid while the child decodes below churn slot 1 (one scratch
  // would be invalidated by the first child decode). No suspension happens
  // between this decode and the last view use.
  DecodeScratch* outer_scratch = ctx->Scratch(0);
  DecodeScratch* child_scratch = ctx->Scratch(1);
  Result<IbltDecodeView> decoded = remote.Decode(outer_scratch);
  if (!decoded.ok()) co_return decoded.status();

  // D_B: Bob's children whose encodings differ from all of Alice's. Their
  // blobs, in the same order, are the decoded negatives themselves, and
  // serve as the partner sketches below as they are.
  std::vector<const ChildSet*> partners;
  std::vector<bool> in_db(bob.size(), false);
  for (const IbltKeyView& blob : decoded.value().negative) {
    std::optional<size_t> j = bob_index.FindBlob(blob, bob_blobs);
    if (!j) co_return VerificationFailure("iblt2: unknown negative encoding");
    in_db[*j] = true;
    partners.push_back(&bob[*j]);
  }

  // D_A: recover each of Alice's differing children, keeping the
  // fingerprint each one was verified against.
  std::vector<RecoveredChild> recovered;
  std::vector<IbltFixedRank> order;  // Partner ranking, reused per child.
  for (const IbltKeyView& blob : decoded.value().positive) {
    const uint64_t fingerprint = ChildIbltBlobFingerprint(blob);
    Result<ChildSet> child =
        RecoverChild(blob, fingerprint, child_config,
                     decoded.value().negative, partners, fp_family, &order,
                     child_scratch);
    if (!child.ok()) {
      co_return DecodeFailure("iblt2: a child IBLT decoded with no partner");
    }
    recovered.push_back({std::move(child).value(), fingerprint});
  }

  AssembledParent assembled = AssembleParent(
      bob, coins->Fingerprints(), in_db, std::move(recovered), fp_family);
  if (assembled.fingerprint != alice_parent_fp) {
    co_return VerificationFailure("iblt2: parent fingerprint mismatch");
  }
  co_return std::move(assembled.parent);
}

Task<Status> IbltOfIbltsProtocol::ReconcileAsyncAlice(
    const SetOfSets& alice, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Status valid = ValidateSetOfSetsMemo(alice, params_, ctx);
  if (!valid.ok()) {
    // Alice opens in both modes; abort in her first slot.
    co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
  }
  size_t next = 0;

  const int trials = known_d.has_value() ? params_.max_attempts
                                         : kMaxDoublings;
  size_t d = known_d.has_value() ? std::max<size_t>(*known_d, 1) : 1;
  const size_t first_d = d;
  ChildCoins coins;  // Held while attempts share a child seed.
  co_return co_await RunAliceTrials(
      ctx, channel, &next, trials,
      [&](int trial) {
        return DoublingTrialSeed(params_, kAttemptTag, known_d, trial);
      },
      [&](int, uint64_t seed) {
        size_t d_hat = std::max<size_t>(DHat(d, params_), 1);
        return AttemptAlice(alice, d, first_d, d_hat, seed,
                            ChildCoinSeed(params_, kAttemptTag, known_d, seed),
                            &coins, &next, channel, ctx);
      },
      [&] {
        // Doubling stays clamped (both halves identically, so configs keep
        // matching): a remote peer's fail verdicts must not be able to
        // drive sketch allocations without bound.
        if (!known_d.has_value()) {
          d = std::min<size_t>(d * 2, MaxWireDHat(/*key_width=*/8));
        }
      },
      std::string("iblt2 (") + (known_d.has_value() ? "SSRK" : "SSRU") +
          ") failed: ");
}

Task<Result<SsrOutcome>> IbltOfIbltsProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Status valid = ValidateSetOfSets(bob, params_);
  size_t next = 0;
  if (!valid.ok()) {
    // Bob's first slot is the verdict after Alice's opener.
    const Channel::Message& m = co_await ctx->Receive(channel, next);
    ++next;
    if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
    co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
  }

  const int trials = known_d.has_value() ? params_.max_attempts
                                         : kMaxDoublings;
  size_t d = known_d.has_value() ? std::max<size_t>(*known_d, 1) : 1;
  const size_t first_d = d;
  ChildCoins coins;  // Held while attempts share a child seed.
  co_return co_await RunBobTrials(
      ctx, channel, &next, trials,
      [&](int trial) {
        return DoublingTrialSeed(params_, kAttemptTag, known_d, trial);
      },
      [&](int, uint64_t seed, bool* peer_aborted) {
        size_t d_hat = std::max<size_t>(DHat(d, params_), 1);
        return AttemptBob(bob, d, first_d, d_hat, seed,
                          ChildCoinSeed(params_, kAttemptTag, known_d, seed),
                          &coins, &next, peer_aborted, channel, ctx);
      },
      [&] {
        if (!known_d.has_value()) {
          d = std::min<size_t>(d * 2, MaxWireDHat(/*key_width=*/8));
        }
      },
      std::string("iblt2 (") + (known_d.has_value() ? "SSRK" : "SSRU") +
          ") failed: ");
}

}  // namespace setrec
