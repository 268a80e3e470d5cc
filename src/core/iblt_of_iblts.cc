#include "core/iblt_of_iblts.h"

#include <cassert>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {
/// SSRU doubles d from 1 (Corollary 3.6).
constexpr LadderSpec kLadder = {
    .name = "iblt2", .attempt_tag = 0x69626c32ull /* "ibl2" */, .first_d = 1};

/// Child/outer table configs for one attempt, derived identically by both
/// parties from its rung (d, d_hat, the attempt's seed and its child seed,
/// and `first_d`, the d of the ladder's first rung).
struct AttemptConfigs {
  IbltConfig child;
  IbltConfig outer;
};

AttemptConfigs MakeConfigs(const Rung& rung) {
  AttemptConfigs configs;
  // The child table's seed is salted with the cells it has grown past the
  // ladder's first child table, so an SSRU ladder's rungs share coins only
  // while they share a table size (d = 1, 2 and 4), and each larger table
  // draws its own: under one seed, two keys that share a cell in a smaller
  // table would be likelier to share one in the larger, as Cell() only
  // reduces one mix by the partition width. SSRK trials never grow the
  // table, so their salt is 0.
  configs.child = IbltConfig::ForDifference(rung.d, 0, /*key_width=*/8);
  const size_t first_cells =
      IbltConfig::ForDifference(rung.first_d, 0, /*key_width=*/8).cells;
  const size_t grown = configs.child.cells - first_cells;
  configs.child.seed =
      DeriveSeed(rung.child_seed, /*tag=*/0x63686c64ull + grown);
  configs.outer = IbltConfig::ForDifference(
      2 * rung.d_hat, rung.seed, ChildIbltBlobWidth(configs.child));
  return configs;
}

}  // namespace

Task<Status> IbltOfIbltsProtocol::AttemptAlice(const SetOfSets& alice,
                                               Rung rung, ChildCoins* coins,
                                               size_t* next, Channel* channel,
                                               ProtocolContext* ctx) const {
  HashFamily fp_family(rung.child_seed, /*tag=*/0x66703262ull);
  const AttemptConfigs configs = MakeConfigs(rung);
  coins->Begin(alice, fp_family, /*slots=*/1);

  // Encode every child, insert encodings into the outer table. The child
  // blobs, packed into one buffer the first time the ladder sketches this
  // child config, land in the outer table as one batch (deferred to the
  // planner under the service). The whole message is memoized across
  // sessions sharing Alice's set.
  uint64_t cache_key = ProtocolCacheKey(
      ctx->SetIdentity(&alice),
      {kLadder.attempt_tag, rung.d, rung.first_d, rung.d_hat, rung.seed,
       rung.child_seed, static_cast<uint64_t>(params_.wire_codec)});
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
    const SetOfSets& bob, Rung rung, ChildCoins* coins, size_t* next,
    bool* peer_aborted, Channel* channel, ProtocolContext* ctx) const {
  HashFamily fp_family(rung.child_seed, /*tag=*/0x66703262ull);
  const AttemptConfigs configs = MakeConfigs(rung);
  const IbltConfig& child_config = configs.child;
  const IbltConfig& outer_config = configs.outer;
  coins->Begin(bob, fp_family, /*slots=*/1);
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kLadder.attempt_tag, rung.d, rung.first_d, rung.d_hat, rung.seed,
       rung.child_seed, static_cast<uint64_t>(params_.wire_codec)});

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
  AttemptLadder ladder(params_, known_d, kLadder);
  size_t next = 0;  // Index of the next transcript message.
  co_return co_await RunAliceTrials(
      &ladder, alice, channel, ctx, &next, [&](const Rung& rung) {
        return AttemptAlice(alice, rung, ladder.coins(), &next, channel, ctx);
      });
}

Task<Result<SsrOutcome>> IbltOfIbltsProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  AttemptLadder ladder(params_, known_d, kLadder);
  size_t next = 0;
  co_return co_await RunBobTrials(
      &ladder, bob, channel, ctx, &next,
      [&](const Rung& rung, bool* peer_aborted) {
        return AttemptBob(bob, rung, ladder.coins(), &next, peer_aborted,
                          channel, ctx);
      });
}

}  // namespace setrec
