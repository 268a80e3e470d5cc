// Admin-frame client hardening and the distributed-tracing round trip:
// QueryStatsOverFd / QueryTracesOverFd must fail closed against a
// misbehaving server (other exposition versions, wrong reply labels,
// oversized replies, early EOF), TRACE? must serve the completed-trace
// store through a real pump, and a traced session over real TCP must
// merge into one client+server timeline.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "net/net_pump.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "obs/trace_text.h"
#include "service/sync_service.h"
#include "transport/channel.h"

namespace setrec {
namespace {

// The oversized-reply test makes the fake server write into a socket the
// client has already abandoned; that is EPIPE, not a crash.
const int kIgnoreSigpipe = [] {
  ::signal(SIGPIPE, SIG_IGN);
  return 0;
}();

// Plays one exchange of the admin protocol as the SERVER: consumes the
// client's query frame, answers with `reply_label` + `payload`, closes.
void FakeAdminServer(int fd, const std::string& reply_label,
                     std::string payload, bool send_reply = true) {
  FrameDecoder decoder;
  std::vector<uint8_t> buf(4096);
  Channel::Message query;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n <= 0) break;
    decoder.Feed(buf.data(), static_cast<size_t>(n));
    if (decoder.failed() || decoder.Next(&query)) break;
  }
  if (send_reply) {
    Channel::Message reply;
    reply.from = Party::kAlice;
    reply.label = reply_label;
    reply.payload.assign(payload.begin(), payload.end());
    (void)WriteFrameToFd(fd, reply);  // EPIPE is fine: client may bail.
  }
  ::close(fd);
}

Result<std::string> QueryFakeServer(const std::string& reply_label,
                                    std::string payload,
                                    bool send_reply = true) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread server([&] {
    FakeAdminServer(sv[0], reply_label, std::move(payload), send_reply);
  });
  Result<std::string> got = QueryStatsOverFd(sv[1]);
  ::close(sv[1]);
  server.join();
  return got;
}

TEST(AdminClientHardening, AcceptsKnownMetricsVersions) {
  Result<std::string> v2 = QueryFakeServer(
      kStatReplyLabel, "# setrec-metrics v2\ncounter x{} 1\nrate y{} 1.000\n");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_NE(v2.value().find("counter x{} 1"), std::string::npos);
}

TEST(AdminClientHardening, UnknownMetricsVersionFailsClosed) {
  // Any other version may carry lines this client would misread: the
  // helper must refuse it rather than return half-parsed text.
  EXPECT_FALSE(QueryFakeServer(kStatReplyLabel,
                               "# setrec-metrics v1\ncounter x{} 1\n")
                   .ok());
  EXPECT_FALSE(
      QueryFakeServer(kStatReplyLabel, "# setrec-metrics v3\n").ok());
  EXPECT_FALSE(QueryFakeServer(kStatReplyLabel, "not an exposition").ok());
  EXPECT_FALSE(QueryFakeServer(kStatReplyLabel, "").ok());
}

TEST(AdminClientHardening, WrongReplyLabelFailsClosed) {
  EXPECT_FALSE(
      QueryFakeServer("NOPE", "# setrec-metrics v2\n").ok());
  // A protocol frame where the admin reply should be is just as wrong.
  EXPECT_FALSE(
      QueryFakeServer("T1", "# setrec-metrics v2\n").ok());
}

TEST(AdminClientHardening, EarlyCloseFailsClosed) {
  Result<std::string> got =
      QueryFakeServer(kStatReplyLabel, "", /*send_reply=*/false);
  EXPECT_FALSE(got.ok());
}

TEST(AdminClientHardening, OversizedReplyFailsClosed) {
  // 5 MB of exposition: over the 4 MB admin ceiling. The decoder latches
  // before buffering it all, so a hostile server cannot balloon memory.
  std::string huge = "# setrec-metrics v2\n";
  huge.resize(5u << 20, 'x');
  EXPECT_FALSE(QueryFakeServer(kStatReplyLabel, std::move(huge)).ok());
}

TEST(AdminClientHardening, TraceVersionValidated) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread server([&] {
    FakeAdminServer(sv[0], kTraceReplyLabel, "# setrec-trace v9\n");
  });
  EXPECT_FALSE(QueryTracesOverFd(sv[1]).ok());
  ::close(sv[1]);
  server.join();
}

struct Fixture {
  SsrParams params;
  SetOfSets alice;
  SetOfSets bob;
  std::optional<size_t> known_d;
};

Fixture MakeFixture() {
  SsrWorkloadSpec spec;
  spec.num_children = 16;
  spec.child_size = 8;
  spec.changes = 3;
  spec.seed = 6620;
  SsrWorkload w = MakeSsrWorkload(spec);
  Fixture f;
  f.params.max_child_size = spec.child_size + spec.changes + 2;
  f.params.max_children = spec.num_children + spec.changes;
  f.params.seed = spec.seed + 9;
  f.alice = std::move(w.alice);
  f.bob = std::move(w.bob);
  f.known_d = w.applied_changes;
  return f;
}

TEST(TraceQuery, ServesCompletedTracesThroughThePump) {
  const Fixture f = MakeFixture();
  SyncService service;
  const uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  int admin[2];
  int session[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, admin), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, session), 0);
  ASSERT_TRUE(pump.AdoptConnection(admin[0]).ok());
  ASSERT_TRUE(pump.AdoptConnection(session[0]).ok());

  constexpr uint64_t kTraceId = 0xabcdef12;
  Result<std::string> before = Status::Ok();
  Result<std::string> after = Status::Ok();
  Result<SsrOutcome> outcome = Status::Ok();
  std::thread client_thread([&] {
    // Pre-hello, pre-session: an empty trace store is just the version
    // line — the admin path needs no session state.
    before = QueryTracesOverFd(admin[1]);
    HelloSpec hello;
    hello.protocol = SsrProtocolKind::kIblt2;
    hello.set_id = set_id;
    hello.params = f.params;
    hello.known_d = f.known_d;
    hello.trace_id = kTraceId;
    if (Status s = SendHello(session[1], hello); s.ok()) {
      Channel channel;
      outcome = RunBobHalfOverFd(*MakeSsrProtocol(hello.protocol, f.params),
                                 f.bob, f.known_d, session[1], &channel);
    }
    ::close(session[1]);
    // The exposition is live: poll until the pump digests the finalize.
    for (int i = 0; i < 100; ++i) {
      after = QueryTracesOverFd(admin[1]);
      if (!after.ok() ||
          after.value().find("id=00000000abcdef12") != std::string::npos) {
        break;
      }
    }
    ::close(admin[1]);
  });
  pump.DrainConnections();
  client_thread.join();

  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value(),
            std::string(obs::kTraceTextVersionLine) + "\n");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  std::vector<obs::ParsedTrace> traces;
  ASSERT_TRUE(obs::ParseTraceExposition(after.value(), &traces));
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, kTraceId);
  EXPECT_EQ(traces[0].side, "server");
  EXPECT_FALSE(traces[0].events.empty());
  EXPECT_EQ(pump.stats().protocol_errors, 0u);
  EXPECT_GE(pump.SnapshotPumpMetrics().trace_requests, 2u);
}

TEST(TraceQuery, TracedTcpSessionMergesIntoOneTimeline) {
  const Fixture f = MakeFixture();
  SyncService service;
  const uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  Result<uint16_t> port = pump.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // Preemption on a loaded one-core box (TSan especially) opens real
  // wall-clock gaps no span covers, so a single run can land under the
  // coverage bar with nothing wrong. Retry a fresh traced session like
  // setrec_stat --probe does; the strict 90% gate lives in the smoke
  // lane (scripts/check.sh) where the box is quiet.
  obs::MergedTimeline merged;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const uint64_t trace_id = 0x5eed1234u + static_cast<uint64_t>(attempt);
    std::ostringstream id_text;
    id_text << "id=" << std::hex << std::setw(16) << std::setfill('0')
            << trace_id;
    obs::SessionTracer tracer;
    tracer.EnableCapture(1024);
    Result<std::string> server_text = Status::Ok();
    Result<SsrOutcome> outcome = Status::Ok();
    std::atomic<bool> client_done{false};
    std::thread client_thread([&] {
      // The client half, instrumented like setrec_stat --probe.
      const uint64_t start_ns = obs::NowNanos();
      tracer.Record(trace_id, obs::TracePhase::kSession, true, start_ns,
                    trace_id);
      Result<int> fd = ConnectTcp("127.0.0.1", port.value());
      if (!fd.ok()) {
        outcome = fd.status();
        client_done.store(true);
        return;
      }
      HelloSpec hello;
      hello.protocol = SsrProtocolKind::kCascade;
      hello.set_id = set_id;
      hello.params = f.params;
      hello.known_d = f.known_d;
      hello.trace_id = trace_id;
      tracer.Record(trace_id, obs::TracePhase::kHello, true, obs::NowNanos(),
                    trace_id);
      Status hello_sent = SendHello(fd.value(), hello);
      tracer.Record(trace_id, obs::TracePhase::kHello, false, obs::NowNanos(),
                    trace_id);
      if (!hello_sent.ok()) {
        outcome = hello_sent;
        ::close(fd.value());
        client_done.store(true);
        return;
      }
      Channel channel;
      outcome = RunBobHalfOverFd(*MakeSsrProtocol(hello.protocol, f.params),
                                 f.bob, f.known_d, fd.value(), &channel,
                                 &tracer, trace_id);
      const uint64_t end_ns = obs::NowNanos();
      tracer.Record(trace_id, obs::TracePhase::kSession, false, end_ns,
                    trace_id);
      tracer.OnSessionEnd(trace_id, trace_id, end_ns - start_ns, "client",
                          nullptr);
      ::close(fd.value());
      // Fetch the server half over a second connection; poll for finalize.
      for (int i = 0; i < 100; ++i) {
        Result<int> admin_fd = ConnectTcp("127.0.0.1", port.value());
        if (!admin_fd.ok()) {
          server_text = admin_fd.status();
          break;
        }
        server_text = QueryTracesOverFd(admin_fd.value());
        ::close(admin_fd.value());
        if (!server_text.ok() ||
            server_text.value().find(id_text.str()) != std::string::npos) {
          break;
        }
      }
      client_done.store(true);
    });
    // Serve until the client is done: the connection set is transiently
    // empty between the session fd closing and the admin reconnects, so
    // DrainConnections alone would return too early.
    while (!client_done.load()) {
      pump.PumpOnce(10);
    }
    pump.DrainConnections();
    client_thread.join();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(server_text.ok()) << server_text.status().ToString();

    // Round-trip the client half through the same text codec, then merge.
    std::vector<obs::ParsedTrace> client_traces;
    ASSERT_TRUE(obs::ParseTraceExposition(
        obs::FormatTraceExposition(tracer.SnapshotCompleted(), "client"),
        &client_traces));
    ASSERT_EQ(client_traces.size(), 1u);
    std::vector<obs::ParsedTrace> server_traces;
    ASSERT_TRUE(
        obs::ParseTraceExposition(server_text.value(), &server_traces));
    const obs::ParsedTrace* server = nullptr;
    for (const obs::ParsedTrace& t : server_traces) {
      if (t.trace_id == trace_id) server = &t;
    }
    ASSERT_NE(server, nullptr) << server_text.value();

    merged = obs::MergeTraceTimelines(client_traces[0], server);
    if (merged.has_server && merged.coverage > 0.5) break;
  }
  // Both halves interleave on one axis; an attempt clearing the bar
  // proves the propagation + clock-rebase pipeline end to end.
  EXPECT_TRUE(merged.has_server);
  EXPECT_GT(merged.coverage, 0.5) << merged.text;
  EXPECT_NE(merged.text.find("client > hello"), std::string::npos);
  EXPECT_NE(merged.text.find("server > session"), std::string::npos);
  EXPECT_NE(merged.text.find("client < session"), std::string::npos);
}

}  // namespace
}  // namespace setrec
