#include "apps/shingles.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "core/encoding.h"
#include "estimator/l0_estimator.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "setrec/multiset_codec.h"
#include "setrec/set_reconciler.h"
#include "util/serialization.h"

namespace setrec {

std::vector<uint64_t> ShingleSet(const std::string& text, size_t k,
                                 uint64_t seed) {
  HashFamily family(seed, /*tag=*/0x7368696eull);  // "shin"
  std::vector<std::string> words;
  std::istringstream stream(text);
  std::string word;
  while (stream >> word) words.push_back(word);

  std::vector<uint64_t> shingles;
  if (words.empty() || k == 0) return shingles;
  const size_t windows = words.size() >= k ? words.size() - k + 1 : 1;
  for (size_t i = 0; i < windows; ++i) {
    std::string joined;
    for (size_t j = i; j < std::min(i + k, words.size()); ++j) {
      joined += words[j];
      joined += '\x1f';
    }
    shingles.push_back(
        family.HashBytes(reinterpret_cast<const uint8_t*>(joined.data()),
                         joined.size()) &
        (kUserElementLimit - 1));
  }
  std::sort(shingles.begin(), shingles.end());
  shingles.erase(std::unique(shingles.begin(), shingles.end()),
                 shingles.end());
  return shingles;
}

namespace {

struct AttemptResult {
  SetOfSets collection;
  std::vector<DocumentMatch::Kind> kinds;
  size_t fresh = 0;
  size_t near = 0;
  size_t exact = 0;
};

Result<AttemptResult> CollectionAttempt(const SetOfSets& alice,
                                        const SetOfSets& bob,
                                        size_t per_doc_diff, size_t d_hat,
                                        uint64_t seed, Channel* channel) {
  HashFamily fp_family(seed, /*tag=*/0x66707368ull);
  IbltConfig child_config = IbltConfig::ForDifference(
      per_doc_diff, DeriveSeed(seed, /*tag=*/0x63686c73ull));
  IbltConfig outer_config = IbltConfig::ForDifference(
      2 * d_hat, seed, ChildIbltBlobWidth(child_config));

  // Round A (Alice -> Bob): parent fingerprint + outer table.
  Iblt outer(outer_config);
  std::map<uint64_t, const ChildSet*> alice_by_fp;
  std::vector<uint64_t> alice_fps;
  alice_fps.reserve(alice.size());
  for (const ChildSet& doc : alice) {
    uint64_t fp = ChildFingerprint(doc, fp_family);
    alice_by_fp[fp] = &doc;
    alice_fps.push_back(fp);
    outer.Insert(EncodeChildIbltBlob(doc, child_config, fp));
  }
  ByteWriter wa;
  // ParentFingerprint(alice), from the child fingerprints in hand.
  wa.PutU64(SetFingerprint(alice_fps, fp_family));
  outer.Serialize(&wa);
  size_t msg_a = channel->Send(Party::kAlice, wa.Take(), "shingles-outer");

  // Bob: decode the outer table, pair child IBLTs.
  ByteReader ra(channel->Receive(msg_a).payload);
  uint64_t alice_parent_fp = 0;
  if (!ra.GetU64(&alice_parent_fp)) return ParseError("shingles truncated");
  Result<Iblt> received = Iblt::Deserialize(&ra, outer_config);
  if (!received.ok()) return received.status();
  Iblt remote = std::move(received).value();
  // Bob's blobs, packed once, erased as one batch, and indexed by the
  // fingerprint each ends in.
  std::vector<uint64_t> bob_fps(bob.size());
  for (size_t j = 0; j < bob.size(); ++j) {
    bob_fps[j] = ChildFingerprint(bob[j], fp_family);
  }
  ByteWriter bob_packed;
  AppendChildIbltBlobs(bob, child_config, bob_fps, &bob_packed);
  remote.EraseBatch(bob_packed.bytes().data(), bob.size());
  const ChildFingerprintIndex bob_index(bob_fps);
  // Outer decode views (held across the pairing loop) and the nested
  // per-document decodes need separate scratches; see DecodeScratch.
  DecodeScratch outer_scratch;
  DecodeScratch child_scratch;
  Result<IbltDecodeView> decoded = remote.Decode(&outer_scratch);
  if (!decoded.ok()) return decoded.status();

  // Bob's changed documents, in the order of their blobs (the decoded
  // negatives, which are the partner sketches below as they are).
  std::vector<const ChildSet*> partners;
  std::vector<bool> in_db(bob.size(), false);
  for (const IbltKeyView& blob : decoded.value().negative) {
    std::optional<size_t> j =
        bob_index.FindBlob(blob, bob_packed.bytes().data());
    if (!j) return VerificationFailure("shingles: unknown negative encoding");
    in_db[*j] = true;
    partners.push_back(&bob[*j]);
  }

  AttemptResult result;
  SetOfSets recovered_children;
  std::vector<DocumentMatch::Kind> recovered_kinds;
  std::vector<uint64_t> fresh_fps;
  std::vector<IbltFixedRank> order;  // Partner ranking, reused per document.
  for (const IbltKeyView& blob : decoded.value().positive) {
    const uint64_t fingerprint = ChildIbltBlobFingerprint(blob);
    bool paired = false;
    // Closest partners first (Iblt::RankFixed); every partner is tried,
    // each decoded against straight from the blob bytes.
    Iblt::RankFixed(child_config, blob, decoded.value().negative, &order);
    for (const IbltFixedRank& rank : order) {
      Result<IbltDecodeView64> dd = Iblt::DecodeFixedDifferenceU64View(
          child_config, blob, decoded.value().negative[rank.index],
          &child_scratch);
      if (!dd.ok()) continue;
      ChildSet candidate = ApplyDifference(
          *partners[rank.index], dd.value().positive, dd.value().negative);
      if (ChildFingerprint(candidate, fp_family) == fingerprint) {
        recovered_children.push_back(std::move(candidate));
        recovered_kinds.push_back(DocumentMatch::Kind::kNear);
        paired = true;
        break;
      }
    }
    if (!paired) fresh_fps.push_back(fingerprint);
  }

  // Round B (Bob -> Alice): fingerprints of undecodable (fresh) documents.
  ByteWriter wb;
  wb.PutU64Vector(fresh_fps);
  size_t msg_b = channel->Send(Party::kBob, wb.Take(), "shingles-fresh-req");

  // Round C (Alice -> Bob): the fresh documents, raw.
  ByteReader rb(channel->Receive(msg_b).payload);
  std::vector<uint64_t> requested;
  if (!rb.GetU64Vector(&requested)) return ParseError("shingles truncated");
  ByteWriter wc;
  wc.PutVarint(requested.size());
  for (uint64_t fp : requested) {
    auto it = alice_by_fp.find(fp);
    if (it == alice_by_fp.end()) {
      return VerificationFailure("shingles: fresh request for unknown doc");
    }
    wc.PutU64Vector(*it->second);
  }
  size_t msg_c = channel->Send(Party::kAlice, wc.Take(), "shingles-fresh");

  ByteReader rc(channel->Receive(msg_c).payload);
  uint64_t fresh_count = 0;
  if (!rc.GetVarint(&fresh_count)) return ParseError("shingles truncated");
  for (uint64_t i = 0; i < fresh_count; ++i) {
    ChildSet doc;
    if (!rc.GetU64Vector(&doc)) return ParseError("shingles truncated");
    recovered_children.push_back(std::move(doc));
    recovered_kinds.push_back(DocumentMatch::Kind::kFresh);
  }

  // Assemble: Bob's unchanged documents are exact duplicates.
  for (size_t j = 0; j < bob.size(); ++j) {
    if (!in_db[j]) {
      recovered_children.push_back(bob[j]);
      recovered_kinds.push_back(DocumentMatch::Kind::kExact);
    }
  }
  // Canonical order, kinds kept parallel.
  std::vector<size_t> idx(recovered_children.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return recovered_children[a] < recovered_children[b];
  });
  for (size_t i : idx) {
    result.collection.push_back(recovered_children[i]);
    result.kinds.push_back(recovered_kinds[i]);
    switch (recovered_kinds[i]) {
      case DocumentMatch::Kind::kExact: ++result.exact; break;
      case DocumentMatch::Kind::kNear: ++result.near; break;
      case DocumentMatch::Kind::kFresh: ++result.fresh; break;
    }
  }
  if (ParentFingerprint(result.collection, fp_family) != alice_parent_fp) {
    return VerificationFailure("shingles: parent fingerprint mismatch");
  }
  return result;
}

}  // namespace

Result<CollectionReconcileOutcome> ReconcileCollections(
    const SetOfSets& alice, const SetOfSets& bob, size_t per_doc_diff,
    const SsrParams& params, Channel* channel) {
  if (Status s = ValidateSetOfSets(alice, params); !s.ok()) return s;
  if (Status s = ValidateSetOfSets(bob, params); !s.ok()) return s;

  // Round 0 (Bob -> Alice): how many documents differ.
  L0Estimator::Params est_params;
  est_params.seed = DeriveSeed(params.seed, /*tag=*/0x73684553ull);
  HashFamily fp_family(est_params.seed, /*tag=*/0x66707368ull);
  L0Estimator bob_est(est_params);
  std::vector<uint64_t> bob_fps;
  bob_fps.reserve(bob.size());
  for (const ChildSet& doc : bob) {
    bob_fps.push_back(ChildFingerprint(doc, fp_family));
  }
  bob_est.UpdateBatch(bob_fps.data(), bob_fps.size(), 2);
  ByteWriter writer;
  bob_est.Serialize(&writer);
  size_t msg = channel->Send(Party::kBob, writer.Take(), "shingles-est");
  ByteReader reader(channel->Receive(msg).payload);
  Result<L0Estimator> merged_r = L0Estimator::Deserialize(&reader, est_params);
  if (!merged_r.ok()) return merged_r.status();
  L0Estimator merged = std::move(merged_r).value();
  L0Estimator alice_est(est_params);
  std::vector<uint64_t> alice_fps;
  alice_fps.reserve(alice.size());
  for (const ChildSet& doc : alice) {
    alice_fps.push_back(ChildFingerprint(doc, fp_family));
  }
  alice_est.UpdateBatch(alice_fps.data(), alice_fps.size(), 1);
  if (Status s = merged.Merge(alice_est); !s.ok()) return s;
  size_t d_hat = std::max<size_t>(
      static_cast<size_t>(params.estimate_slack *
                          static_cast<double>(merged.Estimate())) /
          2,
      2);

  Status last = DecodeFailure("no attempts made");
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    uint64_t seed =
        DeriveSeed(params.seed, uint64_t{0x73686174} + static_cast<uint64_t>(attempt));
    Result<AttemptResult> result =
        CollectionAttempt(alice, bob, per_doc_diff, d_hat, seed, channel);
    if (result.ok()) {
      CollectionReconcileOutcome outcome;
      outcome.collection = std::move(result.value().collection);
      outcome.kinds = std::move(result.value().kinds);
      outcome.fresh_documents = result.value().fresh;
      outcome.near_duplicates = result.value().near;
      outcome.exact_duplicates = result.value().exact;
      outcome.stats = {channel->rounds(), channel->total_bytes(),
                       attempt + 1};
      return outcome;
    }
    last = result.status();
    if (last.code() == StatusCode::kParseError) return last;
    d_hat *= 2;
  }
  return Exhausted("collection reconciliation failed: " + last.ToString());
}

}  // namespace setrec
