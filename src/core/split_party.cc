#include "core/split_party.h"

#include <cassert>
#include <utility>

#include "core/build_context.h"
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

uint64_t DoublingTrialSeed(const SsrParams& params, uint64_t attempt_tag,
                           std::optional<size_t> known_d, int trial) {
  const uint64_t rung = static_cast<uint64_t>(trial);
  return DeriveSeed(params.seed,
                    attempt_tag + (known_d.has_value() ? rung : 1000 + rung));
}

uint64_t ChildCoinSeed(const SsrParams& params, uint64_t attempt_tag,
                       std::optional<size_t> known_d, uint64_t attempt_seed) {
  if (known_d.has_value()) return attempt_seed;
  return DoublingTrialSeed(params, attempt_tag, known_d, /*trial=*/0);
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

}  // namespace setrec
