#include "net/stream_party.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <memory>
#include <optional>
#include <utility>

#include "core/build_context.h"
#include "core/task.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/trace_text.h"
#include "transport/channel.h"
#include "util/serialization.h"

namespace setrec {

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable(std::string("socket: ") + strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Unavailable(std::string("connect: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return InvalidArgument("unix socket path too long");
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable(std::string("socket: ") + strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Unavailable(std::string("connect: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  return fd;
}

namespace {

Status WriteAll(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that hung up mid-write must surface as EPIPE,
    // not kill us.
    ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Unavailable(std::string("write: ") + strerror(errno));
  }
  return Status::Ok();
}

/// The client-side context: inline semantics (this thread runs exactly one
/// party), with every local send framed straight onto the stream. With a
/// tracer attached, each blocking frame write becomes a send-wait span.
class StreamPartyContext final : public InlineContext {
 public:
  StreamPartyContext(int fd, Party local, obs::SessionTracer* tracer,
                     uint64_t trace_id)
      : fd_(fd), local_(local), tracer_(tracer), trace_id_(trace_id) {}

  const Status& write_status() const { return write_status_; }

  void OnSend(Channel* channel, size_t index) override {
    const Channel::Message& message = channel->Receive(index);
    if (message.from == local_ && write_status_.ok()) {
      ByteWriter writer;
      WriteMessageFrame(message, &writer);
      Record(obs::TracePhase::kSendWait, /*enter=*/true);
      write_status_ = WriteAll(fd_, writer.bytes().data(), writer.size());
      Record(obs::TracePhase::kSendWait, /*enter=*/false);
    }
    ProtocolContext::OnSend(channel, index);
  }

  /// Client spans key on the trace id (the client has no session ids).
  void Record(obs::TracePhase phase, bool enter) {
    if (tracer_ != nullptr && tracer_->armed()) {
      tracer_->Record(trace_id_, phase, enter, obs::NowNanos(), trace_id_);
    }
  }

 private:
  int fd_;
  Party local_;
  obs::SessionTracer* tracer_;
  uint64_t trace_id_;
  Status write_status_;
};

/// Admin replies are operator text, not protocol tables: cap the frame at
/// a size no honest exposition approaches, so a confused or malicious
/// peer cannot make a one-shot CLI buffer gigabytes (FrameDecoder fails
/// the oversized frame and the query returns kParseError).
constexpr size_t kMaxAdminReplyBytes = 4u << 20;

/// Bytes per read() of a client's socket. The buffer is one uninitialized
/// allocation per session: read() fills what the decoder is fed.
constexpr size_t kReadChunkBytes = 64u << 10;

Result<std::string> QueryAdminOverFd(int fd, const Channel::Message& query,
                                     const char* reply_label) {
  if (Status s = WriteFrameToFd(fd, query); !s.ok()) return s;
  FrameDecoder decoder(kMaxAdminReplyBytes);
  const auto buf = std::make_unique_for_overwrite<uint8_t[]>(kReadChunkBytes);
  for (;;) {
    ssize_t n = ::read(fd, buf.get(), kReadChunkBytes);
    if (n == 0) return Unavailable("peer closed before the admin reply");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("read: ") + strerror(errno));
    }
    decoder.Feed(buf.get(), static_cast<size_t>(n));
    Channel::Message message;
    while (decoder.Next(&message)) {
      if (message.label == reply_label) {
        return std::string(message.payload.begin(), message.payload.end());
      }
      // Any other frame on an admin query is a peer bug.
      return ParseError("unexpected frame while awaiting admin reply");
    }
    if (decoder.failed()) {
      return ParseError("oversized or malformed admin reply frame");
    }
  }
}

}  // namespace

Status WriteFrameToFd(int fd, const Channel::Message& message) {
  ByteWriter writer;
  WriteMessageFrame(message, &writer);
  return WriteAll(fd, writer.bytes().data(), writer.size());
}

Status SendHello(int fd, const HelloSpec& spec) {
  return WriteFrameToFd(fd, MakeHelloMessage(spec));
}

Result<std::string> QueryStatsOverFd(int fd) {
  Result<std::string> text =
      QueryAdminOverFd(fd, MakeStatQueryMessage(), kStatReplyLabel);
  if (!text.ok()) return text;
  // Fail closed on any other version: its lines may mean something else
  // anywhere in the text, so "parse the prefix and hope" is not an option.
  if (!obs::ValidMetricsExpositionHeader(text.value())) {
    return ParseError("unsupported metrics exposition version");
  }
  return text;
}

Result<std::string> QueryTracesOverFd(int fd) {
  Result<std::string> text =
      QueryAdminOverFd(fd, MakeTraceQueryMessage(), kTraceReplyLabel);
  if (!text.ok()) return text;
  if (text.value().rfind(obs::kTraceTextVersionLine, 0) != 0) {
    return ParseError("unsupported trace exposition version");
  }
  return text;
}

Result<SsrOutcome> RunBobHalfOverFd(const SetsOfSetsProtocol& protocol,
                                    const SetOfSets& bob,
                                    std::optional<size_t> known_d, int fd,
                                    Channel* channel,
                                    obs::SessionTracer* tracer,
                                    uint64_t trace_id) {
  StreamPartyContext ctx(fd, Party::kBob, tracer, trace_id);
  // The compute span opens before the coroutine frame is built: frame
  // allocation is part of the client's local work, not network waiting.
  ctx.Record(obs::TracePhase::kCompute, /*enter=*/true);
  Task<Result<SsrOutcome>> task =
      protocol.ReconcileAsyncBob(bob, known_d, channel, &ctx);
  task.Start();
  ctx.Record(obs::TracePhase::kCompute, /*enter=*/false);
  // The half runs until it parks on a peer message; we then block on the
  // stream, decode arriving frames into the transcript, and pump the
  // parked receive. Strict ping-pong means exactly one side has the turn,
  // so blocking reads cannot deadlock against a live server.
  //
  // Each recv-wait span opens at the instant the preceding compute span
  // closes (one span per server turn, however many reads it takes), so a
  // preemption at the turn boundary lands inside a span instead of in an
  // instrumentation gap — the merged timeline's coverage measures real
  // untraced work, not scheduler luck.
  FrameDecoder decoder;
  const auto buf = std::make_unique_for_overwrite<uint8_t[]>(kReadChunkBytes);
  if (!task.Done()) ctx.Record(obs::TracePhase::kRecvWait, /*enter=*/true);
  while (!task.Done()) {
    if (!ctx.write_status().ok()) {
      ctx.CancelReceives();
      return ctx.write_status();
    }
    ssize_t n = ::read(fd, buf.get(), kReadChunkBytes);
    if (n == 0) {
      ctx.CancelReceives();
      return Unavailable("peer closed the connection mid-protocol");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      ctx.CancelReceives();
      return Unavailable(std::string("read: ") + strerror(errno));
    }
    decoder.Feed(buf.get(), static_cast<size_t>(n));
    Channel::Message message;
    bool delivered = false;
    while (decoder.Next(&message)) {
      channel->Send(message.from, std::move(message.payload),
                    std::move(message.label));
      delivered = true;
    }
    if (decoder.failed()) {
      ctx.CancelReceives();
      return ParseError("malformed frame from peer");
    }
    if (delivered) {
      ctx.Record(obs::TracePhase::kRecvWait, /*enter=*/false);
      ctx.Record(obs::TracePhase::kCompute, /*enter=*/true);
      ctx.PumpReceives();
      ctx.Record(obs::TracePhase::kCompute, /*enter=*/false);
      if (!task.Done()) ctx.Record(obs::TracePhase::kRecvWait, /*enter=*/true);
    }
  }
  // The final send (typically Bob's ok verdict) may have failed after the
  // task completed; success must mean the peer actually got it.
  if (!ctx.write_status().ok()) return ctx.write_status();
  return task.TakeResult();
}

}  // namespace setrec
