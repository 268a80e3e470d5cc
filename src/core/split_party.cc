#include "core/split_party.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "core/build_context.h"
#include "estimator/l0_estimator.h"
#include "hashing/random.h"

namespace setrec {

void PutStatusPayload(const Status& status, ByteWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(status.code()));
  writer->PutVarint(status.message().size());
  writer->PutBytes(
      reinterpret_cast<const uint8_t*>(status.message().data()),
      status.message().size());
}

bool GetStatusPayload(ByteReader* reader, Status* out) {
  uint8_t code = 0;
  uint64_t len = 0;
  if (!reader->GetU8(&code) || !reader->GetVarint(&len) ||
      len > reader->remaining()) {
    return false;
  }
  if (code == static_cast<uint8_t>(StatusCode::kOk) ||
      code > static_cast<uint8_t>(kMaxStatusCode)) {
    return false;
  }
  std::string message(static_cast<size_t>(len), '\0');
  if (len > 0 &&
      !reader->GetRaw(static_cast<size_t>(len),
                      reinterpret_cast<uint8_t*>(message.data()))) {
    return false;
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

std::optional<Status> PeerAbort(const Channel::Message& m) {
  if (!IsAbortMessage(m)) return std::nullopt;
  ByteReader reader(m.payload);
  Status carried;
  if (!GetStatusPayload(&reader, &carried)) {
    // A mangled abort frame is still terminal; surface it as such.
    return ParseError("malformed abort frame from peer");
  }
  return carried;
}

Task<Status> SendAbort(ProtocolContext* ctx, Channel* channel, Party from,
                       Status status) {
  ByteWriter writer;
  PutStatusPayload(status, &writer);
  co_await ctx->Send(channel, from, writer.Take(), kAbortLabel);
  co_return status;
}

Task<Status> SendVerdict(ProtocolContext* ctx, Channel* channel, Party from,
                         Status attempt_status, size_t* next) {
  ByteWriter writer;
  writer.PutU8(attempt_status.ok() ? 1 : 0);
  if (!attempt_status.ok()) PutStatusPayload(attempt_status, &writer);
  size_t index =
      co_await ctx->Send(channel, from, writer.Take(), kVerdictLabel);
  assert(index == *next && "transcript index drifted (verdict)");
  (void)index;
  ++*next;
  co_return attempt_status;
}

Task<Result<AttemptVerdict>> ReceiveVerdict(ProtocolContext* ctx,
                                            Channel* channel, size_t* next) {
  const Channel::Message& v = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(v)) co_return *abort;
  co_return ParseVerdict(v);
}

Result<AttemptVerdict> ParseVerdict(const Channel::Message& m) {
  ByteReader reader(m.payload);
  uint8_t ok = 0;
  if (!reader.GetU8(&ok) || ok > 1) {
    return ParseError("malformed verdict payload");
  }
  if (ok == 1) return AttemptVerdict{true, Status::Ok()};
  Status carried;
  if (!GetStatusPayload(&reader, &carried)) {
    return ParseError("malformed verdict payload");
  }
  return AttemptVerdict{false, std::move(carried)};
}

namespace {

constexpr int kDoublingRungs = 40;  // Past the 2^22 clamp from d = 1 or 2.
constexpr uint64_t kDoublingSeedOffset = 1000;

/// `d` doubled `times` times, each doubling clamped at `clamp`: the value
/// after `times` fail verdicts.
size_t Doubled(size_t d, int times, size_t clamp) {
  for (int i = 0; i < times; ++i) {
    const size_t doubled = std::min(d * 2, clamp);
    if (doubled == d) break;  // At the clamp (or 0): no later rung moves.
    d = doubled;
  }
  return d;
}

/// The child fingerprints an opening estimator seeded `estimator_seed`
/// counts.
std::vector<uint64_t> OpenerFingerprints(const SetOfSets& children,
                                         uint64_t estimator_seed,
                                         uint64_t fingerprint_tag) {
  const HashFamily family(estimator_seed, fingerprint_tag);
  std::vector<uint64_t> fps;
  fps.reserve(children.size());
  for (const ChildSet& child : children) {
    fps.push_back(ChildFingerprint(child, family));
  }
  return fps;
}

}  // namespace

bool AttemptLadder::BobOpens() const {
  return spec_.shape == LadderShape::kEstimated && !known_d_.has_value();
}

int AttemptLadder::rungs() const {
  if (spec_.shape == LadderShape::kDoubling && !known_d_.has_value()) {
    return kDoublingRungs;
  }
  return params_->max_attempts;
}

Rung AttemptLadder::At(int trial) const {
  const bool doubling =
      spec_.shape == LadderShape::kDoubling && !known_d_.has_value();
  const uint64_t first_tag =
      spec_.attempt_tag + (doubling ? kDoublingSeedOffset : 0);
  Rung rung;
  rung.trial = trial;
  rung.seed = DeriveSeed(params_->seed,
                         first_tag + static_cast<uint64_t>(trial));
  rung.child_seed =
      doubling ? DeriveSeed(params_->seed, first_tag) : rung.seed;
  const size_t clamp = MaxWireDHat(spec_.clamp_width);
  if (known_d_.has_value()) {
    rung.d = std::max<size_t>(*known_d_, 1);
    rung.first_d = rung.d;
  } else if (doubling) {
    rung.first_d = spec_.first_d;
    rung.d = Doubled(spec_.first_d, trial, clamp);
  } else {
    rung.d_hat = Doubled(opening_d_hat_, trial, clamp);
    return rung;
  }
  rung.d_hat = std::max<size_t>(DHat(rung.d, *params_), 1);
  return rung;
}

void AttemptLadder::TakeEstimate(uint64_t estimate) {
  opening_d_hat_ = std::min<size_t>(
      std::max<size_t>(static_cast<size_t>(params_->estimate_slack *
                                           static_cast<double>(estimate)) /
                           2,
                       2),
      MaxWireDHat(spec_.clamp_width));
}

Task<Status> AttemptLadder::OpenAlice(const SetOfSets& alice, Channel* channel,
                                      ProtocolContext* ctx, size_t* next) {
  Status valid = ValidateSetOfSetsMemo(alice, *params_, ctx);
  if (!BobOpens()) {
    // Alice opens: an invalid set aborts in her first slot.
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
    }
    co_return Status::Ok();
  }
  const Channel::Message& m = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
  if (!valid.ok()) {
    co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
  }
  const L0Estimator::Params est_params{
      .seed = DeriveSeed(params_->seed, spec_.estimator_tag)};
  ByteReader reader(m.payload);
  Result<L0Estimator> merged_r = L0Estimator::Deserialize(&reader,
                                                          est_params);
  if (!merged_r.ok()) {
    co_return co_await SendAbort(ctx, channel, Party::kAlice,
                                 merged_r.status());
  }
  L0Estimator merged = std::move(merged_r).value();
  L0Estimator alice_est(est_params);
  std::vector<uint64_t> alice_fps =
      OpenerFingerprints(alice, est_params.seed, spec_.fingerprint_tag);
  ctx->QueueL0Update(&alice_est, alice_fps.data(), alice_fps.size(), 1);
  co_await ctx->FlushBuilds();
  if (Status s = merged.Merge(alice_est); !s.ok()) {
    co_return co_await SendAbort(ctx, channel, Party::kAlice, s);
  }
  TakeEstimate(merged.Estimate());
  co_return Status::Ok();
}

Task<Status> AttemptLadder::OpenBob(const SetOfSets& bob, Channel* channel,
                                    ProtocolContext* ctx, size_t* next) {
  Status valid = ValidateSetOfSets(bob, *params_);
  if (!BobOpens()) {
    if (valid.ok()) co_return Status::Ok();
    // Bob's first slot follows Alice's opening message; abort there (her
    // abort, if any, wins — matching the combined-path order of
    // validation errors).
    const Channel::Message& m = co_await ctx->Receive(channel, *next);
    ++*next;
    if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
    co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
  }
  // Bob opens with the estimator, or aborts in that slot.
  if (!valid.ok()) {
    co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
  }
  const L0Estimator::Params est_params{
      .seed = DeriveSeed(params_->seed, spec_.estimator_tag)};
  L0Estimator bob_est(est_params);
  std::vector<uint64_t> bob_fps =
      OpenerFingerprints(bob, est_params.seed, spec_.fingerprint_tag);
  ctx->QueueL0Update(&bob_est, bob_fps.data(), bob_fps.size(), 2);
  co_await ctx->FlushBuilds();
  ByteWriter writer;
  bob_est.Serialize(&writer);
  size_t index = co_await ctx->Send(channel, Party::kBob, writer.Take(),
                                    spec_.opener_label);
  assert(index == *next && "transcript index drifted (Bob)");
  (void)index;
  ++*next;
  co_return Status::Ok();
}

void AttemptLadder::PutDHat(const Rung& rung, ByteWriter* writer) const {
  if (rung.carries_d_hat()) writer->PutVarint(rung.d_hat);
}

bool AttemptLadder::GetDHat(ByteReader* reader, Rung* rung) const {
  if (!rung->carries_d_hat()) return true;
  uint64_t wire = 0;
  if (!reader->GetVarint(&wire) ||
      !WireDHatPlausible(wire, spec_.clamp_width)) {
    return false;
  }
  rung->d_hat = static_cast<size_t>(wire);
  return true;
}

bool AttemptLadder::KeepsChildCoins(int trial) const {
  return trial + 1 < rungs() &&
         At(trial + 1).child_seed == At(trial).child_seed;
}

void AttemptLadder::EndDataPhase(int trial) {
  if (!KeepsChildCoins(trial)) coins_ = ChildCoins();
}

Status AttemptLadder::Exhausted(const Status& last) const {
  std::string text = spec_.name;
  if (spec_.shape == LadderShape::kDoubling) {
    text += known_d_.has_value() ? " (SSRK)" : " (SSRU)";
  }
  text += " failed: ";
  text += rungs() > 0 ? last.ToString()
                      : DecodeFailure("no attempts made").ToString();
  return setrec::Exhausted(std::move(text));
}

}  // namespace setrec
