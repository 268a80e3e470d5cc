#include "core/naive_protocol.h"

#include <cassert>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {
constexpr uint64_t kAttemptTag = 0x6e616976ull;  // "naiv"

/// Theorem 3.4's ladder: an l0 estimate over child fingerprints, whose
/// d-hat doubles up to what a table of ChildBlobWidth(h) keys admits.
LadderSpec NaiveLadder(size_t h) {
  return {.name = "naive protocol",
          .attempt_tag = kAttemptTag,
          .shape = LadderShape::kEstimated,
          .clamp_width = ChildBlobWidth(h),
          .estimator_tag = 0x6e764553ull,
          .fingerprint_tag = 0x63667076ull,
          .opener_label = "naive-estimator"};
}

/// Packs every child's fixed-width blob encoding into one contiguous
/// buffer, the shape Iblt::InsertBatch/EraseBatch consume. Sized from the
/// local set and the configured h; each blob is written in place.
std::vector<uint8_t> PackChildBlobs(const SetOfSets& children, size_t h) {
  ByteWriter packed;
  packed.Reserve(children.size() * ChildBlobWidth(h));
  for (const ChildSet& child : children) AppendChildBlob(child, h, &packed);
  return packed.Take();
}

}  // namespace

Task<Status> NaiveProtocol::AttemptAlice(const SetOfSets& alice, Rung rung,
                                         const AttemptLadder& ladder,
                                         size_t* next, Channel* channel,
                                         ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  // The outer table must decode |E_A ⊕ E_B| <= 2 * d_hat blobs.
  IbltConfig config =
      IbltConfig::ForDifference(2 * rung.d_hat, rung.seed, ChildBlobWidth(h));
  HashFamily fp_family(rung.seed, /*tag=*/0x70666e76ull);

  // Message memoized across sessions sharing Alice's set; the d-hat prefix
  // (estimator mode) is part of the cached bytes, so the mode flag is part
  // of the key — an SSRK session landing on the same (d_hat, seed) must
  // not replay prefixed SSRU bytes. The wire codec shapes the bytes too,
  // so it is part of the key: dense and sparse sessions coexist in one
  // service without replaying each other's encodings.
  uint64_t cache_key = ProtocolCacheKey(
      ctx->SetIdentity(&alice),
      {kAttemptTag, rung.d_hat, rung.seed, h, rung.carries_d_hat() ? 1u : 0u,
       static_cast<uint64_t>(params_.wire_codec)});
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    ladder.PutDHat(rung, writer);
    Iblt table(config);
    std::vector<uint8_t> packed = PackChildBlobs(alice, h);
    ctx->QueueInsertBytes(&table, packed.data(), alice.size());
    co_await ctx->FlushBuilds();
    writer->PutU64(ParentFingerprint(alice, fp_family));
    table.SerializeWith(params_.wire_codec, writer);
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "naive-iblt", build);
  if (!sent.ok()) co_return sent.status();
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;
  co_return Status::Ok();
}

Task<Result<SetOfSets>> NaiveProtocol::AttemptBob(
    const SetOfSets& bob, Rung rung, const AttemptLadder& ladder,
    size_t* next, bool* peer_aborted, Channel* channel,
    ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  const size_t width = ChildBlobWidth(h);

  const Channel::Message& m = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m)) {
    *peer_aborted = true;
    co_return *abort;
  }
  ByteReader reader(m.payload);
  if (!ladder.GetDHat(&reader, &rung)) {
    co_return ParseError("naive message carries an invalid d-hat");
  }
  IbltConfig config = IbltConfig::ForDifference(2 * rung.d_hat, rung.seed,
                                                width);
  HashFamily fp_family(rung.seed, /*tag=*/0x70666e76ull);
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kAttemptTag, rung.d_hat, rung.seed, h, rung.carries_d_hat() ? 1u : 0u,
       static_cast<uint64_t>(params_.wire_codec)});

  uint64_t alice_fp = 0;
  if (!reader.GetU64(&alice_fp)) co_return ParseError("naive message truncated");
  Result<Iblt> received = ctx->ParseTableMemo(TableMemoKey(cache_key, 0),
                                              &reader, config,
                                              params_.wire_codec);
  if (!received.ok()) co_return received.status();
  Iblt remote = std::move(received).value();
  std::vector<uint8_t> bob_packed = PackChildBlobs(bob, h);
  ctx->QueueEraseBytes(&remote, bob_packed.data(), bob.size());
  co_await ctx->FlushBuilds();

  // The decoded entries are views into the pooled scratch arena; they stay
  // valid for the rest of this attempt (no suspension or further decode
  // through this scratch before the last view use).
  DecodeScratch* scratch = ctx->Scratch(0);
  Result<IbltDecodeView> decoded = remote.Decode(scratch);
  if (!decoded.ok()) co_return decoded.status();

  // Positive blobs are Alice-only children; negatives are Bob-only. Direct
  // blobs carry no fingerprint, so Bob's blobs are looked up among the
  // sorted negative views (no materialization), each negative dropping one
  // child.
  std::vector<bool> dropped(bob.size(), false);
  MarkDecodedNegatives(decoded.value().negative, bob_packed.data(), width,
                       bob.size(), &dropped);
  std::vector<uint64_t> bob_fps(bob.size());
  for (size_t i = 0; i < bob.size(); ++i) {
    if (!dropped[i]) bob_fps[i] = ChildFingerprint(bob[i], fp_family);
  }
  std::vector<RecoveredChild> recovered;
  recovered.reserve(decoded.value().positive.size());
  for (const IbltKeyView& blob : decoded.value().positive) {
    Result<ChildSet> child = DecodeChildBlob(blob, h);
    if (!child.ok()) co_return child.status();
    const uint64_t fp = ChildFingerprint(child.value(), fp_family);
    recovered.push_back({std::move(child).value(), fp});
  }
  AssembledParent assembled =
      AssembleParent(bob, bob_fps, dropped, std::move(recovered), fp_family);
  if (assembled.fingerprint != alice_fp) {
    co_return VerificationFailure("naive: recovered parent fingerprint mismatch");
  }
  co_return std::move(assembled.parent);
}

Task<Status> NaiveProtocol::ReconcileAsyncAlice(const SetOfSets& alice,
                                                std::optional<size_t> known_d,
                                                Channel* channel,
                                                ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("naive protocol requires max_child_size (h)");
  }
  AttemptLadder ladder(params_, known_d, NaiveLadder(params_.max_child_size));
  size_t next = 0;  // Index of the next transcript message.
  co_return co_await RunAliceTrials(
      &ladder, alice, channel, ctx, &next, [&](const Rung& rung) {
        return AttemptAlice(alice, rung, ladder, &next, channel, ctx);
      });
}

Task<Result<SsrOutcome>> NaiveProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("naive protocol requires max_child_size (h)");
  }
  AttemptLadder ladder(params_, known_d, NaiveLadder(params_.max_child_size));
  size_t next = 0;
  co_return co_await RunBobTrials(
      &ladder, bob, channel, ctx, &next,
      [&](const Rung& rung, bool* peer_aborted) {
        return AttemptBob(bob, rung, ladder, &next, peer_aborted, channel,
                          ctx);
      });
}

}  // namespace setrec
