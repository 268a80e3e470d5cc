#include "core/cascading_protocol.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {

/// SSRU doubles d from 2 (Corollary 3.8).
constexpr LadderSpec kLadder = {
    .name = "cascade", .attempt_tag = 0x63736364ull /* "cscd" */, .first_d = 2};

size_t CeilLog2(size_t x) {
  size_t level = 0;
  size_t value = 1;
  while (value < x) {
    value *= 2;
    ++level;
  }
  return level;
}

/// Child-IBLT config for level i: O(2^i) cells sized to decode child
/// differences of up to 2^i elements. A child's difference from its match
/// never exceeds d, so cells are capped at ~2.2(d+1) even at deep levels.
/// Every rung of an SSRU ladder has d >= 2^t, so a level's config is the
/// same in every rung that has the level (under the ladder's child seed).
IbltConfig LevelChildConfig(size_t level, size_t d, uint64_t child_seed) {
  IbltConfig config;
  const double target =
      static_cast<double>(std::min<uint64_t>(1ull << level, d + 1));
  config.cells = std::max<size_t>(6, static_cast<size_t>(2.2 * target));
  config.num_hashes = 4;
  config.key_width = 8;
  config.seed = DeriveSeed(child_seed, 0x6c63686cull + level);  // "lchl"
  return config;
}

/// Outer table T_i config: sized for the expected number of undecoded child
/// encodings at level i (<= 2 d-hat at level 1, ~(9/4) d / 2^i deeper).
/// Deep levels hold very few (large) encodings, so the floor is kept low —
/// the paper's O(d / 2^i) cells.
IbltConfig LevelOuterConfig(size_t level, size_t d, size_t d_hat,
                            size_t blob_width, uint64_t seed) {
  size_t expected_keys;
  if (level == 1) {
    expected_keys = 2 * d_hat;
  } else {
    double deep = 2.5 * static_cast<double>(d) /
                  static_cast<double>(1ull << (level - 1));
    expected_keys = std::min<size_t>(2 * d_hat,
                                     static_cast<size_t>(std::ceil(deep)));
  }
  IbltConfig config;
  config.cells = std::max<size_t>(
      8, static_cast<size_t>(2.0 * static_cast<double>(expected_keys)) + 4);
  config.num_hashes = 4;
  config.key_width = blob_width;
  config.seed = DeriveSeed(seed, 0x6c6f7472ull + level);
  return config;
}

/// The full per-attempt table plan — levels 1..t plus the optional direct
/// table T*. Derived identically by both parties from shared knowledge:
/// child configs from the attempt's child seed, outer tables and T* from
/// its seed.
struct CascadePlan {
  size_t t = 0;
  bool has_star = false;
  std::vector<IbltConfig> child_configs;
  std::vector<IbltConfig> outer_configs;
  IbltConfig star_config;
};

CascadePlan MakePlan(size_t h, const Rung& rung) {
  const size_t d = rung.d;
  const size_t d_hat = rung.d_hat;
  const uint64_t seed = rung.seed;
  CascadePlan plan;
  const size_t dm = std::min(d, h);
  plan.t = std::max<size_t>(1, CeilLog2(dm));
  plan.has_star = h <= d;  // t == log2 h: append the direct table T*.
  for (size_t i = 1; i <= plan.t; ++i) {
    plan.child_configs.push_back(LevelChildConfig(i, d, rung.child_seed));
    plan.outer_configs.push_back(LevelOuterConfig(
        i, d, d_hat, ChildIbltBlobWidth(plan.child_configs.back()), seed));
  }
  if (plan.has_star) {
    size_t star_keys = std::min<size_t>(
        2 * d_hat, static_cast<size_t>(
                       std::ceil(2.5 * static_cast<double>(d) /
                                 static_cast<double>(std::max<size_t>(h, 1)))) +
                       2);
    plan.star_config = IbltConfig::ForDifference(
        std::max<size_t>(star_keys, 2),
        DeriveSeed(seed, /*tag=*/0x73746172ull), ChildBlobWidth(h));  // "star"
  }
  return plan;
}

}  // namespace

Task<Status> CascadingProtocol::AttemptAlice(
    const SetOfSets& alice, Rung rung, ChildCoins* coins, size_t* next,
    AttemptTables* lineage, Channel* channel, ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  const bool sparse = params_.wire_codec == WireCodec::kSparse;
  HashFamily fp_family(rung.child_seed, /*tag=*/0x66706373ull);
  const CascadePlan plan = MakePlan(h, rung);
  coins->Begin(alice, fp_family, plan.t);

  // Every child encoded into every level (and T*). One message, memoized
  // across sessions sharing Alice's set; each level's child blobs are
  // packed into one buffer the first time the ladder sketches that level,
  // and the outer-table updates run through the deferred planner passes.
  // The wire codec is part of the key (dense/sparse sessions must not
  // replay each other's bytes).
  uint64_t cache_key = ProtocolCacheKey(
      ctx->SetIdentity(&alice),
      {kLadder.attempt_tag, rung.d, rung.d_hat, rung.seed, rung.child_seed, h,
       static_cast<uint64_t>(params_.wire_codec)});
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    // ParentFingerprint(alice), from the child fingerprints in hand.
    writer->PutU64(SetFingerprint(coins->Fingerprints(), fp_family));
    AttemptTables built;  // This attempt's tables, kept only when sparse.
    for (size_t level = 0; level < plan.t; ++level) {
      const uint8_t* packed = coins->Blobs(level, plan.child_configs[level]);
      Iblt outer(plan.outer_configs[level]);
      ctx->QueueInsertBytes(&outer, packed, alice.size());
      co_await ctx->FlushBuilds();
      // Delta vs. the previous attempt's table at this level when its
      // config repeats. Outer tables take each attempt's own seed, so no
      // config repeats across a ladder and this writes a full sparse
      // frame; the lineage hook serves a schedule that resends a table.
      TableLineage parent{level < lineage->outers.size()
                              ? &lineage->outers[level]
                              : nullptr};
      outer.SerializeWith(params_.wire_codec, writer, parent);
      if (sparse) built.outers.push_back(std::move(outer));
    }
    if (plan.has_star) {
      ByteWriter packed;
      packed.Reserve(alice.size() * plan.star_config.key_width);
      for (const ChildSet& child : alice) AppendChildBlob(child, h, &packed);
      Iblt star(plan.star_config);
      ctx->QueueInsertBytes(&star, packed.bytes().data(), alice.size());
      co_await ctx->FlushBuilds();
      star.SerializeWith(
          params_.wire_codec, writer,
          TableLineage{lineage->star ? &*lineage->star : nullptr});
      if (sparse) built.star = std::move(star);
    }
    if (sparse) {
      lineage->outers = std::move(built.outers);
      lineage->star = std::move(built.star);
    }
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "cascade", build);
  if (!sent.ok()) co_return sent.status();
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;
  co_return Status::Ok();
}

Task<Result<SetOfSets>> CascadingProtocol::AttemptBob(
    const SetOfSets& bob, Rung rung, ChildCoins* coins, size_t* next,
    AttemptTables* lineage, bool* peer_aborted, Channel* channel,
    ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  const bool sparse = params_.wire_codec == WireCodec::kSparse;
  HashFamily fp_family(rung.child_seed, /*tag=*/0x66706373ull);
  const CascadePlan plan = MakePlan(h, rung);
  coins->Begin(bob, fp_family, plan.t);
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kLadder.attempt_tag, rung.d, rung.d_hat, rung.seed, rung.child_seed, h,
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
    co_return ParseError("cascade message truncated");
  }
  std::vector<Iblt> outer_tables;
  for (size_t level = 0; level < plan.t; ++level) {
    TableLineage parent{level < lineage->outers.size()
                            ? &lineage->outers[level]
                            : nullptr};
    Result<Iblt> table = ctx->ParseTableMemo(TableMemoKey(cache_key, level),
                                             &reader,
                                             plan.outer_configs[level],
                                             params_.wire_codec, parent);
    if (!table.ok()) co_return table.status();
    outer_tables.push_back(std::move(table).value());
  }
  Result<Iblt> star_table =
      plan.has_star
          ? ctx->ParseTableMemo(
                TableMemoKey(cache_key, plan.t), &reader, plan.star_config,
                params_.wire_codec,
                TableLineage{lineage->star ? &*lineage->star : nullptr})
          : InvalidArgument("unused");
  if (plan.has_star && !star_table.ok()) co_return star_table.status();
  if (sparse) {
    // Retain pristine copies for the next attempt's delta frames before the
    // decode below erases Bob's encodings out of the tables in place.
    lineage->outers = outer_tables;
    lineage->star.reset();
    if (plan.has_star) lineage->star = star_table.value();
  }

  std::vector<bool> in_db(bob.size(), false);   // Bob's differing children.
  SetOfSets da;                                  // Alice's recovered children
  std::vector<uint64_t> da_fps;                  // and their fingerprints.
  auto recovered_before = [&da_fps](uint64_t fp) {
    return std::find(da_fps.begin(), da_fps.end(), fp) != da_fps.end();
  };
  const std::vector<uint64_t>& bob_fps = coins->Fingerprints();
  // Every level's blob ends in the same child fingerprint, so one index
  // maps each level's decoded negatives back to Bob's children.
  const ChildFingerprintIndex& bob_index = coins->Index();
  // Outer/star decode views live in the pooled slot-0 scratch and are
  // iterated while the nested per-child decodes churn slot 1; the split
  // keeps the views valid (one scratch would be invalidated by the first
  // child decode). Within a level there is no suspension between the outer
  // decode and the last view use; across levels the table is re-decoded.
  DecodeScratch* outer_scratch = ctx->Scratch(0);
  DecodeScratch* child_scratch = ctx->Scratch(1);

  // Partners for each level's child sketches: Bob's differing children (at
  // most about d) and views of their packed blobs, which are ranked and
  // decoded against in place. Reused by every level.
  std::vector<const ChildSet*> partners;
  std::vector<IbltKeyView> partner_blobs;
  std::vector<IbltFixedRank> order;

  // The fingerprints of the parent Bob would assemble now: his children not
  // known to differ, then the ones recovered. Once they make Alice's parent
  // fingerprint, every later table (Alice's children minus these) is
  // empty, so the remaining levels and T* cannot change the result.
  std::vector<uint64_t> parent_fps;
  parent_fps.reserve(bob.size() + rung.d_hat);
  auto parent_matches = [&] {
    parent_fps.clear();
    for (size_t j = 0; j < bob.size(); ++j) {
      if (!in_db[j]) parent_fps.push_back(bob_fps[j]);
    }
    parent_fps.insert(parent_fps.end(), da_fps.begin(), da_fps.end());
    return SetFingerprint(parent_fps, fp_family) == alice_parent_fp;
  };
  bool matched = false;

  for (size_t level = 0; level < plan.t && !matched; ++level) {
    const IbltConfig& child_config = plan.child_configs[level];
    const size_t blob_width = plan.outer_configs[level].key_width;
    Iblt& outer = outer_tables[level];

    // Bob's level-i encodings (all children, for the index lookups and the
    // partners below), written the first time the ladder reaches level i.
    const uint8_t* bob_blobs = coins->Blobs(level, child_config);
    // Delete Bob's children not yet known to differ (level 1: all of them)
    // straight from his packed blobs, one batch per run of adjacent ones,
    // then every already-recovered child of Alice's. Erasures commute, so
    // the table is the same as after one combined batch.
    for (size_t j = 0; j < bob.size();) {
      if (in_db[j]) {
        ++j;
        continue;
      }
      size_t end = j + 1;
      while (end < bob.size() && !in_db[end]) ++end;
      ctx->QueueEraseBytes(&outer, bob_blobs + j * blob_width, end - j);
      j = end;
    }
    ByteWriter da_packed;
    AppendChildIbltBlobs(da, child_config, da_fps, &da_packed);
    if (!da.empty()) {
      ctx->QueueEraseBytes(&outer, da_packed.bytes().data(), da.size());
    }
    co_await ctx->FlushBuilds();

    IbltPartialDecodeView decoded = outer.DecodePartial(outer_scratch);

    // Negative encodings expose Bob children that differ from Alice's.
    for (const IbltKeyView& blob : decoded.entries.negative) {
      std::optional<size_t> j = bob_index.FindBlob(blob, bob_blobs);
      if (j) in_db[*j] = true;
      // Unknown negatives are decode noise; later verification catches it.
    }

    partners.clear();
    partner_blobs.clear();
    for (size_t j = 0; j < bob.size(); ++j) {
      if (!in_db[j]) continue;
      partners.push_back(&bob[j]);
      partner_blobs.push_back({bob_blobs + j * blob_width, blob_width});
    }

    for (const IbltKeyView& blob : decoded.entries.positive) {
      const uint64_t fingerprint = ChildIbltBlobFingerprint(blob);
      if (recovered_before(fingerprint)) continue;
      Result<ChildSet> child =
          RecoverChild(blob, fingerprint, child_config, partner_blobs,
                       partners, fp_family, &order, child_scratch);
      // A miss here is fine: the child resurfaces at the next level with a
      // larger sketch (that is the cascade's whole point).
      if (!child.ok()) continue;
      da.push_back(std::move(child).value());
      da_fps.push_back(fingerprint);
    }
    matched = parent_matches();
  }

  if (plan.has_star && !matched) {
    Iblt star = std::move(star_table).value();
    const size_t blob_width = plan.star_config.key_width;
    ByteWriter star_packed;
    star_packed.Reserve((bob.size() + da.size()) * blob_width);
    for (const ChildSet& child : bob) AppendChildBlob(child, h, &star_packed);
    for (const ChildSet& child : da) AppendChildBlob(child, h, &star_packed);
    ctx->QueueEraseBytes(&star, star_packed.bytes().data(),
                         bob.size() + da.size());
    co_await ctx->FlushBuilds();
    IbltPartialDecodeView decoded = star.DecodePartial(outer_scratch);
    // T* blobs carry no fingerprint: Bob's blobs are looked up among the
    // sorted negatives instead.
    MarkDecodedNegatives(decoded.entries.negative, star_packed.bytes().data(),
                         blob_width, bob.size(), &in_db);
    for (const IbltKeyView& blob : decoded.entries.positive) {
      Result<ChildSet> child = DecodeChildBlob(blob, h);
      if (!child.ok()) continue;
      uint64_t fp = ChildFingerprint(child.value(), fp_family);
      if (recovered_before(fp)) continue;
      da.push_back(std::move(child).value());
      da_fps.push_back(fp);
    }
  }

  std::vector<RecoveredChild> recovered;
  recovered.reserve(da.size());
  for (size_t k = 0; k < da.size(); ++k) {
    recovered.push_back({std::move(da[k]), da_fps[k]});
  }
  AssembledParent assembled =
      AssembleParent(bob, bob_fps, in_db, std::move(recovered), fp_family);
  if (assembled.fingerprint != alice_parent_fp) {
    co_return VerificationFailure("cascade: parent fingerprint mismatch");
  }
  co_return std::move(assembled.parent);
}

Task<Status> CascadingProtocol::ReconcileAsyncAlice(
    const SetOfSets& alice, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("cascading protocol requires max_child_size (h)");
  }
  AttemptLadder ladder(params_, known_d, kLadder);
  size_t next = 0;  // Index of the next transcript message.
  AttemptTables lineage;  // The previous attempt's tables (sparse deltas).
  co_return co_await RunAliceTrials(
      &ladder, alice, channel, ctx, &next, [&](const Rung& rung) {
        return AttemptAlice(alice, rung, ladder.coins(), &next, &lineage,
                            channel, ctx);
      });
}

Task<Result<SsrOutcome>> CascadingProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("cascading protocol requires max_child_size (h)");
  }
  AttemptLadder ladder(params_, known_d, kLadder);
  size_t next = 0;
  AttemptTables lineage;  // The previous attempt's tables (sparse deltas).
  co_return co_await RunBobTrials(
      &ladder, bob, channel, ctx, &next,
      [&](const Rung& rung, bool* peer_aborted) {
        return AttemptBob(bob, rung, ladder.coins(), &next, &lineage,
                          peer_aborted, channel, ctx);
      });
}

}  // namespace setrec
