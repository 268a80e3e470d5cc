#include "net/net_pump.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <utility>

#include "net/wire.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "obs/trace_text.h"
#include "util/serialization.h"

namespace setrec {

namespace {

/// See Connection::frames_since_step. 4 leaves generous slack over the
/// honest maximum (one in-flight protocol message).
constexpr size_t kMaxFramesPerStep = 4;

/// Backpressure: once a connection's outgoing buffer holds this many
/// unwritten bytes, the pump stops reading from that fd, so the session
/// stops advancing until the client drains its socket. Session sends are
/// framed straight into the buffer, and a stalled strict-half-duplex
/// session sends at most one more turn, so a buffer holds at most this cap
/// plus one turn.
constexpr size_t kMaxOutbufBytes = 1u << 20;

/// Read granularity per readable wakeup.
constexpr size_t kReadChunkBytes = 64u << 10;

// Poller token space: 0 is the wake pipe, small integers are listeners,
// and connections draw monotonically from kConnTokenBase up (tokens are
// never reused, so a recycled fd number can't alias a stale registration).
constexpr uint64_t kWakeToken = 0;
constexpr uint64_t kListenerTokenBase = 1;
constexpr uint64_t kConnTokenBase = uint64_t{1} << 16;

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Unavailable(std::string("fcntl(O_NONBLOCK): ") + strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

/// Per-connection state: the fd, the inbound frame decoder, and the
/// outgoing byte buffer the session's sends are framed into.
struct NetPump::Connection {
  int fd = -1;
  /// Poller registration token and key into NetPump::connections_.
  uint64_t token = 0;
  /// Interest mask currently registered with the poller.
  uint32_t interest = 0;
  FrameDecoder decoder;
  uint64_t session_id = 0;
  bool session_done = false;
  bool closing = false;
  /// In this pass's touched_ work list.
  bool touched = false;
  /// Peer sent EOF. Judged only after the service has consumed every frame
  /// that arrived before it: an EOF behind the final verdict is a clean
  /// goodbye, an EOF with the session still live is a disconnect.
  bool eof = false;
  std::vector<uint8_t> outbuf;
  size_t outbuf_off = 0;
  /// Timestamp of the last protocol frame serialized toward the peer;
  /// cleared when the peer's answer arrives (per-conn round-trip metric).
  uint64_t last_send_ns = 0;
  /// Protocol frames delivered since the service last stepped. Strict
  /// half-duplex means an honest client has at most ONE protocol message
  /// in flight (plus the hello); a client streaming frames faster than
  /// the session consumes them is flooding, and gets dropped before its
  /// transcript can grow without bound.
  size_t frames_since_step = 0;
  /// The one armed timeout: handshake_list_ until the hello, idle_list_
  /// after it; null when none is armed.
  DeadlineList* deadline_list = nullptr;
  Connection* deadline_prev = nullptr;
  Connection* deadline_next = nullptr;
  uint64_t deadline_ns = 0;

  size_t outbuf_pending() const { return outbuf.size() - outbuf_off; }
};

NetPump::NetPump(SyncService* service, NetPumpOptions options)
    : service_(service),
      options_(options),
      poller_(MakePoller()),
      next_token_(kConnTokenBase) {
  // Eager self-pipe: Wake()/AdoptConnectionAsync may be called from any
  // thread, so the fds must exist before the pump is shared. On the
  // (unlikely) pipe failure the pump still works — cross-thread wakes then
  // ride on the caller's poll timeout.
  (void)EnsureWakePipe();
  if (wake_pipe_[0] >= 0) {
    (void)poller_->Add(wake_pipe_[0], Poller::kRead, kWakeToken);
  }
  // A networked service answers TRACE?, so traced/slow sessions must be
  // retained even when --trace-slow never armed the tracer's stderr dump.
  service_->tracer().EnableCapture(obs::kTraceRingCapacity);
}

NetPump::~NetPump() {
  // A live session's on_send points at its connection: end the session
  // before the connection goes.
  for (const auto& [id, conn] : by_session_) {
    service_->CancelSession(id, Unavailable("net pump shut down"));
  }
  for (const auto& [token, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  for (int fd : listeners_) ::close(fd);
  for (const std::string& path : unix_paths_) ::unlink(path.c_str());
  adopt_queue_.DrainInto([](int&& fd) { ::close(fd); });
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status NetPump::EnsureWakePipe() {
  if (wake_pipe_[0] >= 0) return Status::Ok();  // Constructor-only path.
  int fds[2];
  if (::pipe(fds) != 0) {
    return Unavailable(std::string("pipe: ") + strerror(errno));
  }
  if (!SetNonBlocking(fds[0]).ok() || !SetNonBlocking(fds[1]).ok()) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Unavailable("wake pipe: O_NONBLOCK failed");
  }
  wake_pipe_[0] = fds[0];
  wake_pipe_[1] = fds[1];
  return Status::Ok();
}

void NetPump::Wake() {
  if (wake_pipe_[1] < 0) return;
  const uint8_t token = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(wake_pipe_[1], &token, 1);
}

void NetPump::AdoptConnectionAsync(int fd) {
  adopt_queue_.Push(fd);
  Wake();
}

Result<uint16_t> NetPump::ListenTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable(std::string("socket: ") + strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options_.reuse_port) {
    // Multi-pump listener distribution: every pump binds the same port and
    // the kernel spreads incoming connections across the listeners.
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      Status err =
          Unavailable(std::string("SO_REUSEPORT: ") + strerror(errno));
      ::close(fd);
      return err;
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, options_.listen_backlog) < 0) {
    Status err = Unavailable(std::string("bind/listen: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status err = Unavailable(std::string("getsockname: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  if (Status s = poller_->Add(fd, Poller::kRead,
                              kListenerTokenBase + listeners_.size());
      !s.ok()) {
    ::close(fd);
    return s;
  }
  listeners_.push_back(fd);
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status NetPump::ListenUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return InvalidArgument("unix socket path too long");
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable(std::string("socket: ") + strerror(errno));
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, options_.listen_backlog) < 0) {
    Status err = Unavailable(std::string("bind/listen: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    ::close(fd);
    return s;
  }
  if (Status s = poller_->Add(fd, Poller::kRead,
                              kListenerTokenBase + listeners_.size());
      !s.ok()) {
    ::close(fd);
    return s;
  }
  listeners_.push_back(fd);
  unix_paths_.push_back(path);
  return Status::Ok();
}

Status NetPump::AdoptConnection(int fd) {
  if (Status s = SetNonBlocking(fd); !s.ok()) return s;
  auto owned = std::make_unique<Connection>();
  Connection* conn = owned.get();
  conn->fd = fd;
  conn->token = next_token_++;
  if (Status s = poller_->Add(fd, Poller::kRead, conn->token); !s.ok()) {
    return s;  // Caller still owns (and closes) the fd.
  }
  conn->interest = Poller::kRead;
  connections_.emplace(conn->token, std::move(owned));
  ++stats_.accepted;
  ArmDeadline(conn, &handshake_list_, options_.handshake_timeout_ms);
  Touch(conn);
  return Status::Ok();
}

void NetPump::Touch(Connection* conn) {
  if (conn->touched) return;
  conn->touched = true;
  touched_.push_back(conn);
}

// Every deadline in a list was armed with the same duration from a
// CLOCK_MONOTONIC reading, so appending at the tail keeps the list sorted:
// the head is always the next to expire, and re-arming is unlink + append.
void NetPump::ArmDeadline(Connection* conn, DeadlineList* list,
                          uint32_t timeout_ms) {
  DisarmDeadline(conn);
  if (timeout_ms == 0) return;
  conn->deadline_ns = obs::NowNanos() + uint64_t{timeout_ms} * 1'000'000;
  conn->deadline_list = list;
  conn->deadline_prev = list->tail;
  (list->tail != nullptr ? list->tail->deadline_next : list->head) = conn;
  list->tail = conn;
}

void NetPump::DisarmDeadline(Connection* conn) {
  DeadlineList* list = conn->deadline_list;
  if (list == nullptr) return;
  (conn->deadline_prev != nullptr ? conn->deadline_prev->deadline_next
                                  : list->head) = conn->deadline_next;
  (conn->deadline_next != nullptr ? conn->deadline_next->deadline_prev
                                  : list->tail) = conn->deadline_prev;
  conn->deadline_list = nullptr;
  conn->deadline_prev = nullptr;
  conn->deadline_next = nullptr;
}

void NetPump::RearmIdle(Connection* conn) {
  if (conn->session_id == 0 || conn->closing) return;
  ArmDeadline(conn, &idle_list_, options_.idle_timeout_ms);
}

void NetPump::ExpireDeadlines(uint64_t now_ns) {
  const auto expire = [&](DeadlineList* list, size_t* reaped) {
    while (list->head != nullptr && list->head->deadline_ns <= now_ns) {
      Connection* conn = list->head;
      DisarmDeadline(conn);
      if (conn->closing) continue;
      ++*reaped;
      metrics_dirty_ = true;
      FailConnection(conn, /*protocol_error=*/false);
    }
  };
  expire(&handshake_list_, &pump_metrics_.handshake_timeouts);
  expire(&idle_list_, &pump_metrics_.idle_timeouts);
}

void NetPump::AcceptFrom(size_t index) {
  if (index >= listeners_.size()) return;
  for (;;) {
    int fd = ::accept(listeners_[index], nullptr, nullptr);
    if (fd < 0) return;
    if (!AdoptConnection(fd).ok()) ::close(fd);
  }
}

void NetPump::StepService() {
  // Step until the service settles: every live coroutine parked at a round
  // boundary already resumed, remaining parks await remote input.
  for (;;) {
    const size_t before = service_->stats().resumes;
    const bool more = service_->Step();
    if (!more || service_->stats().resumes == before) break;
  }
  CollectResults();
}

void NetPump::CollectResults() {
  for (SessionResult& result : service_->TakeResults()) {
    auto it = by_session_.find(result.id);
    if (it != by_session_.end()) {
      it->second->session_done = true;
      // The finish phase must see this connection even when no fd event
      // woke it: it closes once its final frames are flushed.
      Touch(it->second);
      by_session_.erase(it);
    }
    results_.push_back(std::move(result));
  }
}

void NetPump::AppendFrame(Connection* conn, const Channel::Message& message) {
  ByteWriter writer;
  WriteMessageFrame(message, &writer);
  const std::vector<uint8_t>& bytes = writer.bytes();
  conn->outbuf.insert(conn->outbuf.end(), bytes.begin(), bytes.end());
  ++stats_.frames_out;
}

void NetPump::SendAdminReply(Connection* conn, const char* label,
                             const std::string& text) {
  AppendFrame(conn, Channel::Message{
                        Party::kAlice,
                        std::vector<uint8_t>(text.begin(), text.end()),
                        label});
}

void NetPump::HandleStatQuery(Connection* conn) {
  ++pump_metrics_.stat_requests;
  std::string text;
  if (stat_exposition_) {
    text = stat_exposition_();
  } else {
    // Default: this pump's own shard. The pump thread is the service's
    // driving thread, so the LIVE metric blocks are safe to read here and
    // fresher than any published snapshot.
    obs::ExpositionWriter writer;
    AppendServiceExposition(service_->metrics(), service_->stats(), &writer);
    obs::AppendPumpMetrics(pump_metrics_, writer);
    obs::AppendRates(service_->CurrentRates(), writer);
    text = writer.Take();
  }
  SendAdminReply(conn, kStatReplyLabel, text);
}

void NetPump::HandleTraceQuery(Connection* conn) {
  ++pump_metrics_.trace_requests;
  std::string text;
  if (trace_exposition_) {
    text = trace_exposition_();
  } else {
    text = obs::FormatTraceExposition(service_->tracer().SnapshotCompleted(),
                                      "server");
  }
  SendAdminReply(conn, kTraceReplyLabel, text);
}

void NetPump::HandleFrame(Connection* conn, Channel::Message message) {
  ++stats_.frames_in;
  if (IsStatQueryMessage(message)) {
    // Admin traffic: answered inline, invisible to the session layer (it
    // is not the hello, skips the flood gate, never enters a transcript).
    // It IS liveness though: an operator console holding a hello-less
    // connection open must not be reaped as a handshake straggler.
    HandleStatQuery(conn);
    if (conn->session_id == 0) {
      ArmDeadline(conn, &handshake_list_, options_.handshake_timeout_ms);
    }
    return;
  }
  if (IsTraceQueryMessage(message)) {
    HandleTraceQuery(conn);
    if (conn->session_id == 0) {
      ArmDeadline(conn, &handshake_list_, options_.handshake_timeout_ms);
    }
    return;
  }
  if (conn->session_id == 0) {
    // The first non-admin frame must be a valid hello.
    Result<HelloSpec> hello = ParseHelloMessage(message);
    if (!hello.ok()) {
      FailConnection(conn, /*protocol_error=*/true);
      return;
    }
    std::shared_ptr<const SetOfSets> set =
        service_->SharedSetById(hello.value().set_id);
    if (set == nullptr) {
      FailConnection(conn, /*protocol_error=*/true);
      return;
    }
    SessionSpec spec;
    spec.label = "net:" + std::to_string(conn->fd);
    spec.role = SessionRole::kAliceHalf;
    spec.protocol = hello.value().protocol;
    spec.params = hello.value().params;
    spec.alice = std::move(set);
    spec.known_d = hello.value().known_d;
    // Trace context from a traced hello: the service tags its spans with
    // the client's id so both halves of the session merge into one
    // timeline.
    spec.trace_id = hello.value().trace_id;
    // Alice's sends go straight into this connection's outbuf. The
    // connection outlives the session: it is freed only after the session
    // finished or was cancelled (FailConnection, ~NetPump).
    spec.on_send = [this, conn](const Channel::Message& sent) {
      AppendFrame(conn, sent);
      conn->last_send_ns = obs::NowNanos();
      pump_metrics_.outbuf_high_watermark = std::max(
          pump_metrics_.outbuf_high_watermark, conn->outbuf_pending());
      Touch(conn);
    };
    conn->session_id = service_->Submit(std::move(spec));
    by_session_.emplace(conn->session_id, conn);
    // Hello completed: the connection moves from the handshake list to the
    // idle list.
    RearmIdle(conn);
    return;
  }
  if (conn->session_done) {
    // Traffic past the session's end is a protocol violation.
    FailConnection(conn, /*protocol_error=*/true);
    return;
  }
  if (++conn->frames_since_step > kMaxFramesPerStep) {
    FailConnection(conn, /*protocol_error=*/true);
    return;
  }
  if (conn->last_send_ns != 0) {
    pump_metrics_.conn_round_trip.Record(obs::NowNanos() -
                                         conn->last_send_ns);
    conn->last_send_ns = 0;
  }
  if (!service_->DeliverRemote(conn->session_id, std::move(message))) {
    FailConnection(conn, /*protocol_error=*/true);
  }
}

void NetPump::HandleReadable(Connection* conn) {
  // One reusable read buffer for the whole (single-threaded) pump — no
  // per-wakeup allocation.
  std::vector<uint8_t>& buf = read_buf_;
  buf.resize(kReadChunkBytes);
  for (;;) {
    ssize_t n = ::read(conn->fd, buf.data(), buf.size());
    if (n > 0) {
      stats_.bytes_in += static_cast<size_t>(n);
      RearmIdle(conn);
      conn->decoder.Feed(buf.data(), static_cast<size_t>(n));
      Channel::Message message;
      while (!conn->closing && conn->decoder.Next(&message)) {
        HandleFrame(conn, std::move(message));
      }
      if (conn->decoder.failed() && !conn->closing) {
        ++pump_metrics_.frame_decode_failures;
        FailConnection(conn, /*protocol_error=*/true);
      }
      if (conn->closing) return;
      if (static_cast<size_t>(n) < buf.size()) return;  // Drained.
      continue;
    }
    if (n == 0) {
      // EOF: decided after the service digests the frames read above (the
      // final verdict may be sitting in this very chunk).
      conn->eof = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    FailConnection(conn, /*protocol_error=*/false);
    return;
  }
}

void NetPump::FlushWrites(Connection* conn) {
  bool wrote = false;
  while (conn->outbuf_pending() > 0) {
    // MSG_NOSIGNAL: a client that hung up mid-flush must surface as EPIPE
    // (handled by FailConnection below), not SIGPIPE the pump.
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outbuf_off,
                       conn->outbuf_pending(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf_off += static_cast<size_t>(n);
      stats_.bytes_out += static_cast<size_t>(n);
      wrote = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    FailConnection(conn, /*protocol_error=*/false);
    return;
  }
  if (conn->outbuf_pending() == 0) {
    conn->outbuf.clear();
    conn->outbuf_off = 0;
  }
  // Outbound progress is liveness too: a client slowly consuming a large
  // table is not idle.
  if (wrote) RearmIdle(conn);
}

void NetPump::FailConnection(Connection* conn, bool protocol_error) {
  if (conn->closing) return;
  conn->closing = true;
  Touch(conn);
  if (protocol_error) ++stats_.protocol_errors;
  if (conn->session_id != 0 && !conn->session_done) {
    ++stats_.disconnects;
    service_->CancelSession(
        conn->session_id,
        Unavailable(protocol_error ? "peer protocol violation"
                                   : "peer disconnected"));
    by_session_.erase(conn->session_id);
    conn->session_done = true;
  }
  CollectResults();
}

void NetPump::CloseConnection(Connection* conn) {
  DisarmDeadline(conn);
  if (conn->session_id != 0) by_session_.erase(conn->session_id);
  (void)poller_->Remove(conn->fd);
  if (conn->fd >= 0) ::close(conn->fd);
  ++stats_.closed;
  connections_.erase(conn->token);  // Frees conn.
}

void NetPump::UpdateInterest(Connection* conn) {
  uint32_t want = 0;
  if (!conn->closing) {
    if (conn->outbuf_pending() > 0) want |= Poller::kWrite;
    const bool gated = conn->outbuf_pending() >= kMaxOutbufBytes;
    if (gated) ++stats_.backpressure_stalls;
    if (!gated && !conn->eof) want |= Poller::kRead;
  }
  if (want != conn->interest) {
    if (poller_->Modify(conn->fd, want, conn->token).ok()) {
      conn->interest = want;
    }
  }
}

size_t NetPump::PumpOnce(int timeout_ms) {
  // Adopt fds handed off by other threads (multi-pump distribution) before
  // waiting, so they are watched this very pass.
  adopt_queue_.DrainInto([this](int&& fd) {
    if (!AdoptConnection(fd).ok()) ::close(fd);
  });
  // Clamp the wait to the earlier list head so timeouts fire on time; and
  // don't block at all if work is already queued (a direct AdoptConnection
  // outside the loop leaves its connection touched).
  const uint64_t now = obs::NowNanos();
  int wait_ms = timeout_ms;
  uint64_t deadline = UINT64_MAX;
  for (const DeadlineList* list : {&handshake_list_, &idle_list_}) {
    if (list->head != nullptr) {
      deadline = std::min(deadline, list->head->deadline_ns);
    }
  }
  if (deadline != UINT64_MAX) {
    const uint64_t delta_ms =
        deadline > now ? (deadline - now + 999'999) / 1'000'000 : 0;
    const int clamped = delta_ms > (uint64_t{1} << 30)
                            ? (1 << 30)
                            : static_cast<int>(delta_ms);
    if (wait_ms < 0 || clamped < wait_ms) wait_ms = clamped;
  }
  if (!touched_.empty()) wait_ms = 0;
  // Satellite fix (was: "timeouts with no events are not recorded"): the
  // away histogram covers EVERY gap between leaving the poller and
  // re-entering it, so a pump stalled in processing is always visible.
  if (away_mark_ns_ != 0) {
    pump_metrics_.away_from_poll.Record(now - away_mark_ns_);
    metrics_dirty_ = true;
  }
  events_.clear();
  Result<size_t> waited = poller_->Wait(wait_ms, &events_);
  const size_t ready = waited.ok() ? waited.value() : 0;
  const uint64_t wake_ns = obs::NowNanos();
  away_mark_ns_ = wake_ns;
  heartbeat_.Beat(wake_ns);
  ++pump_metrics_.poll_wakeups;
  pump_metrics_.ready_per_wakeup.Record(ready);
  // poll_wake keeps its original meaning: the processing burst after a
  // wakeup WITH events (timeout-only passes measure the timeout).
  const uint64_t wake_start = ready > 0 ? wake_ns : 0;

  size_t handled = 0;
  for (const PollerEvent& event : events_) {
    if (event.token == kWakeToken) {
      ++handled;
      uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
      }
      continue;
    }
    if (event.token < kConnTokenBase) {
      ++handled;
      AcceptFrom(static_cast<size_t>(event.token - kListenerTokenBase));
      continue;
    }
    auto it = connections_.find(event.token);
    if (it == connections_.end()) continue;  // Closed earlier this pass.
    Connection* conn = it->second.get();
    Touch(conn);
    ++handled;
    if (event.hangup) {
      // Drain whatever the peer wrote before hanging up; the EOF verdict
      // is passed after the service digests it.
      if (event.readable) HandleReadable(conn);
      conn->eof = true;
      continue;
    }
    if (event.readable) HandleReadable(conn);
    // Writable-only events: the finish phase flushes every touched conn.
  }
  // Reap connections whose handshake or idle deadline has passed.
  ExpireDeadlines(obs::NowNanos());

  // Advance the sessions fed above. Every send is framed into its
  // connection's outbuf and touches it, whichever fd woke us (lease
  // releases and cross-shard mailbox work wake sessions too), so per-pass
  // cost is O(events + sessions that sent or finished + expired deadlines),
  // independent of total connection count.
  StepService();

  // Finish phase. Index loop: FailConnection/CollectResults may append
  // newly-affected connections mid-walk and they must finish too.
  for (size_t i = 0; i < touched_.size(); ++i) {
    Connection* conn = touched_[i];
    conn->frames_since_step = 0;
    // Judge EOFs now that the service digested everything before them: a
    // peer gone with its session live (or never opened) is a disconnect.
    if (conn->eof && !conn->closing &&
        (conn->session_id == 0 || !conn->session_done)) {
      FailConnection(conn, /*protocol_error=*/false);
    }
    FlushWrites(conn);
    // An EOF'd-but-done connection still flushes: the peer may have
    // half-closed (shutdown(SHUT_WR)) and be waiting to read the final
    // frames; a dead peer fails the write and closes via `closing`.
    if (conn->closing ||
        (conn->session_done && conn->outbuf_pending() == 0)) {
      CloseConnection(conn);
    } else {
      UpdateInterest(conn);
      conn->touched = false;
    }
  }
  touched_.clear();
  if (wake_start != 0) {
    pump_metrics_.poll_wake.Record(obs::NowNanos() - wake_start);
    metrics_dirty_ = true;
  }
  MaybePublishPumpMetrics();
  return handled;
}

void NetPump::MaybePublishPumpMetrics() {
  if (!metrics_dirty_) return;
  const uint64_t now = obs::NowNanos();
  constexpr uint64_t kPublishIntervalNs = 50'000'000;
  const bool idle = connections_.empty();
  if (!idle && now - last_metrics_publish_ns_ < kPublishIntervalNs) return;
  last_metrics_publish_ns_ = now;
  metrics_dirty_ = false;
  std::lock_guard<std::mutex> lock(published_mu_);
  published_metrics_ = pump_metrics_;
}

obs::PumpMetrics NetPump::SnapshotPumpMetrics() const {
  std::lock_guard<std::mutex> lock(published_mu_);
  return published_metrics_;
}

void NetPump::DrainConnections(int poll_timeout_ms) {
  while (!connections_.empty()) {
    PumpOnce(poll_timeout_ms);
  }
}

std::vector<SessionResult> NetPump::TakeResults() {
  return std::move(results_);
}

}  // namespace setrec
