#include "setrec/set_reconciler.h"

#include <algorithm>
#include <string>

#include "estimator/l0_estimator.h"
#include "hashing/hash.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "setrec/multiset_codec.h"
#include "util/serialization.h"

namespace setrec {

namespace {

constexpr uint64_t kAttemptTag = 0x73657472ull;  // "setr"

/// One IBLT exchange attempt. Alice sends (fingerprint, IBLT of her set);
/// Bob subtracts his set and peels. `scratch` is reused across retry
/// attempts so repeated decodes do not churn the allocator.
Result<SetReconcileOutcome> IbltAttempt(const std::vector<uint64_t>& alice,
                                        const std::vector<uint64_t>& bob,
                                        size_t d, uint64_t seed,
                                        Channel* channel,
                                        DecodeScratch* scratch) {
  IbltConfig config = IbltConfig::ForDifference(d, seed);
  HashFamily fp_family(seed, /*tag=*/0x66707374ull);  // "fpst"

  // --- Alice's side ---
  Iblt alice_table(config);
  alice_table.InsertBatch(alice);
  ByteWriter writer;
  writer.PutU64(SetFingerprint(alice, fp_family));
  alice_table.Serialize(&writer);
  size_t msg = channel->Send(Party::kAlice, writer.Take(), "iblt");

  // --- Bob's side ---
  ByteReader reader(channel->Receive(msg).payload);
  uint64_t alice_fp = 0;
  if (!reader.GetU64(&alice_fp)) return ParseError("set message truncated");
  Result<Iblt> received = Iblt::Deserialize(&reader, config);
  if (!received.ok()) return received.status();
  Iblt table = std::move(received).value();
  table.EraseBatch(bob);

  Result<IbltDecodeResult64> decoded = table.DecodeU64(scratch);
  if (!decoded.ok()) return decoded.status();

  SetReconcileOutcome outcome;
  outcome.diff.remote_only = std::move(decoded.value().positive);
  outcome.diff.local_only = std::move(decoded.value().negative);
  std::sort(outcome.diff.remote_only.begin(), outcome.diff.remote_only.end());
  std::sort(outcome.diff.local_only.begin(), outcome.diff.local_only.end());
  outcome.recovered = ApplyDifference(bob, outcome.diff);
  if (SetFingerprint(outcome.recovered, fp_family) != alice_fp) {
    return VerificationFailure("recovered set fingerprint mismatch");
  }
  return outcome;
}

}  // namespace

std::vector<uint64_t> ApplyDifference(const std::vector<uint64_t>& base,
                                      const SetDifference& diff) {
  return ApplyDifference(
      base, std::span<const uint64_t>(diff.remote_only),
      std::span<const uint64_t>(diff.local_only));
}

namespace {

/// `values` if sorted, else a sorted copy of them held in `copy`.
std::span<const uint64_t> SortedView(std::span<const uint64_t> values,
                                     std::vector<uint64_t>* copy) {
  if (std::is_sorted(values.begin(), values.end())) return values;
  copy->assign(values.begin(), values.end());
  std::sort(copy->begin(), copy->end());
  return *copy;
}

}  // namespace

std::vector<uint64_t> ApplyDifference(const std::vector<uint64_t>& base,
                                      std::span<const uint64_t> remote_only,
                                      std::span<const uint64_t> local_only) {
  // Every input is walked in sorted order; a sorted one (every set-of-sets
  // child, and the decode-view sides callers sort in place) is read where
  // it is, so the result is then the only vector built.
  std::vector<uint64_t> base_copy, removed_copy, added_copy;
  const std::span<const uint64_t> sorted_base = SortedView(base, &base_copy);
  const std::span<const uint64_t> removed =
      SortedView(local_only, &removed_copy);
  const std::span<const uint64_t> added =
      SortedView(remote_only, &added_copy);
  std::vector<uint64_t> out;
  out.reserve(base.size() + remote_only.size());
  // Multiset semantics: remove one occurrence per local_only entry, and
  // merge the additions in as the base goes by.
  size_t r = 0;
  size_t a = 0;
  for (uint64_t e : sorted_base) {
    if (r < removed.size() && removed[r] == e) {
      ++r;
      continue;
    }
    while (a < added.size() && added[a] < e) out.push_back(added[a++]);
    out.push_back(e);
  }
  out.insert(out.end(), added.begin() + static_cast<std::ptrdiff_t>(a),
             added.end());
  return out;
}

Result<SetReconcileOutcome> IbltReconcileKnown(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    size_t d, const SetReconcilerOptions& options, Channel* channel) {
  Status last = DecodeFailure("no attempts made");
  DecodeScratch scratch;
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    uint64_t seed =
        DeriveSeed(options.seed, kAttemptTag + static_cast<uint64_t>(attempt));
    Result<SetReconcileOutcome> outcome =
        IbltAttempt(alice, bob, d, seed, channel, &scratch);
    if (outcome.ok()) {
      outcome.value().attempts = attempt + 1;
      return outcome;
    }
    last = outcome.status();
    if (last.code() == StatusCode::kParseError) return last;  // Not retryable.
  }
  return Exhausted("IBLT set reconciliation failed after retries: " +
                   last.ToString());
}

Result<SetReconcileOutcome> IbltReconcileUnknown(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    const SetReconcilerOptions& options, Channel* channel) {
  // Round 1 (Bob -> Alice): l0 difference estimator over Bob's set.
  L0Estimator::Params est_params;
  est_params.seed = DeriveSeed(options.seed, /*tag=*/0x65737431ull);  // "est1"
  L0Estimator bob_estimator(est_params);
  bob_estimator.UpdateBatch(bob.data(), bob.size(), 2);
  ByteWriter writer;
  bob_estimator.Serialize(&writer);
  size_t msg = channel->Send(Party::kBob, writer.Take(), "estimator");

  // Alice merges her side and estimates d.
  ByteReader reader(channel->Receive(msg).payload);
  Result<L0Estimator> received = L0Estimator::Deserialize(&reader, est_params);
  if (!received.ok()) return received.status();
  L0Estimator merged = std::move(received).value();
  L0Estimator alice_estimator(est_params);
  alice_estimator.UpdateBatch(alice.data(), alice.size(), 1);
  Status s = merged.Merge(alice_estimator);
  if (!s.ok()) return s;
  size_t d = static_cast<size_t>(
      options.estimate_slack * static_cast<double>(merged.Estimate()));
  d = std::max<size_t>(d, 8);

  // Round 2: the known-d protocol; double d if an attempt fails outright.
  Status last = DecodeFailure("no attempts made");
  DecodeScratch scratch;
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    uint64_t seed = DeriveSeed(
        options.seed, kAttemptTag + 100 + static_cast<uint64_t>(attempt));
    Result<SetReconcileOutcome> outcome =
        IbltAttempt(alice, bob, d, seed, channel, &scratch);
    if (outcome.ok()) {
      outcome.value().attempts = attempt + 1;
      return outcome;
    }
    last = outcome.status();
    if (last.code() == StatusCode::kParseError) return last;
    d *= 2;  // The estimate was low (or unlucky hashing); grow the table.
  }
  return Exhausted("unknown-d set reconciliation failed: " + last.ToString());
}

Result<SetReconcileOutcome> CharPolyReconcile(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    size_t d, const SetReconcilerOptions& options, Channel* channel) {
  CharPolyReconciler reconciler(d, options.seed);
  Result<std::vector<uint8_t>> message = reconciler.BuildMessage(alice);
  if (!message.ok()) return message.status();
  size_t msg = channel->Send(Party::kAlice, std::move(message).value(),
                             "charpoly");
  Result<SetDifference> diff =
      reconciler.DecodeDifference(channel->Receive(msg).payload, bob);
  if (!diff.ok()) return diff.status();
  SetReconcileOutcome outcome;
  outcome.diff = std::move(diff).value();
  outcome.recovered = ApplyDifference(bob, outcome.diff);
  return outcome;
}

Result<SetReconcileOutcome> MultisetReconcileKnown(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    size_t d, const SetReconcilerOptions& options, Channel* channel) {
  MultisetCodec codec;
  Result<std::vector<uint64_t>> alice_enc = codec.Encode(alice);
  if (!alice_enc.ok()) return alice_enc.status();
  Result<std::vector<uint64_t>> bob_enc = codec.Encode(bob);
  if (!bob_enc.ok()) return bob_enc.status();
  Result<SetReconcileOutcome> outcome = IbltReconcileKnown(
      alice_enc.value(), bob_enc.value(), d, options, channel);
  if (!outcome.ok()) return outcome.status();
  Result<std::vector<uint64_t>> decoded =
      codec.Decode(outcome.value().recovered);
  if (!decoded.ok()) return decoded.status();
  outcome.value().recovered = std::move(decoded).value();
  return outcome;
}

}  // namespace setrec
