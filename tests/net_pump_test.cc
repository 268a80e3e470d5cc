// End-to-end split-party sessions over real sockets: a NetPump-fronted
// SyncService hosts Alice halves; remote clients drive Bob halves over
// socketpairs, TCP loopback and Unix-domain sockets. Transcripts must be
// byte-identical to the direct Reconcile call for the same seeds, and
// disconnects/garbage must cancel cleanly instead of wedging the pump.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "net/net_pump.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

struct Fixture {
  SsrParams params;
  SetOfSets alice;
  SetOfSets bob;
  std::optional<size_t> known_d;
};

Fixture MakeFixture(SsrProtocolKind kind, bool known_d, uint64_t salt) {
  SsrWorkloadSpec spec;
  spec.num_children = 16;
  spec.child_size = 8;
  spec.changes = 3;
  spec.seed = 4400 + static_cast<uint64_t>(kind) * 13 + salt;
  SsrWorkload w = MakeSsrWorkload(spec);
  Fixture f;
  f.params.max_child_size = spec.child_size + spec.changes + 2;
  f.params.max_children = spec.num_children + spec.changes;
  f.params.seed = spec.seed + 9;
  f.alice = std::move(w.alice);
  f.bob = std::move(w.bob);
  if (known_d) f.known_d = w.applied_changes;
  return f;
}

struct ClientResult {
  Result<SsrOutcome> outcome = Status::Ok();
  std::vector<Channel::Message> transcript;
};

/// Decodes the frames already readable on `fd`, without blocking.
std::vector<Channel::Message> ReadAvailableFrames(int fd) {
  FrameDecoder decoder;
  uint8_t buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT)) > 0) {
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  std::vector<Channel::Message> frames;
  Channel::Message m;
  while (decoder.Next(&m)) frames.push_back(std::move(m));
  return frames;
}

HelloSpec MakeHello(SsrProtocolKind kind, uint64_t set_id, const Fixture& f) {
  HelloSpec hello;
  hello.protocol = kind;
  hello.set_id = set_id;
  hello.params = f.params;
  hello.known_d = f.known_d;
  return hello;
}

/// What examples/sync_client.cpp does, inlined: hello, then Bob's half.
ClientResult RunClient(int fd, SsrProtocolKind kind, uint64_t set_id,
                       const Fixture& f) {
  ClientResult result;
  if (Status s = SendHello(fd, MakeHello(kind, set_id, f)); !s.ok()) {
    result.outcome = s;
    return result;
  }
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(kind, f.params);
  Channel channel;
  result.outcome =
      RunBobHalfOverFd(*protocol, f.bob, f.known_d, fd, &channel);
  result.transcript = channel.transcript();
  return result;
}

void ExpectSameTranscript(const std::vector<Channel::Message>& want,
                          const std::vector<Channel::Message>& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<int>(want[i].from), static_cast<int>(got[i].from))
        << what << " message " << i;
    EXPECT_EQ(want[i].label, got[i].label) << what << " message " << i;
    EXPECT_EQ(want[i].payload, got[i].payload) << what << " message " << i;
  }
}

struct Case {
  SsrProtocolKind kind;
  bool known_d;

  std::string Name() const {
    return std::string(SsrProtocolKindName(kind)) +
           (known_d ? "_SSRK" : "_SSRU");
  }
};

class NetPumpSocketpair : public ::testing::TestWithParam<Case> {};

TEST_P(NetPumpSocketpair, SessionTranscriptMatchesDirect) {
  const Case& c = GetParam();
  const Fixture f = MakeFixture(c.kind, c.known_d, 1);

  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(c.kind, f.params);
  Channel direct_channel;
  Result<SsrOutcome> direct =
      protocol->Reconcile(f.alice, f.bob, f.known_d, &direct_channel);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  SyncService service;
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());

  ClientResult client;
  std::thread client_thread([&] {
    client = RunClient(sv[1], c.kind, set_id, f);
    ::close(sv[1]);
  });
  pump.DrainConnections();
  client_thread.join();

  ASSERT_TRUE(client.outcome.ok()) << client.outcome.status().ToString();
  EXPECT_EQ(client.outcome.value().recovered, Canonicalize(f.alice));
  ExpectSameTranscript(direct_channel.transcript(), client.transcript,
                       c.Name().c_str());

  std::vector<SessionResult> results = pump.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].stats.rounds, direct.value().stats.rounds);
  EXPECT_EQ(results[0].stats.bytes, direct.value().stats.bytes);
  EXPECT_EQ(pump.stats().protocol_errors, 0u);
  EXPECT_EQ(pump.stats().disconnects, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, NetPumpSocketpair,
    ::testing::Values(Case{SsrProtocolKind::kNaive, true},
                      Case{SsrProtocolKind::kNaive, false},
                      Case{SsrProtocolKind::kIblt2, true},
                      Case{SsrProtocolKind::kIblt2, false},
                      Case{SsrProtocolKind::kCascade, true},
                      Case{SsrProtocolKind::kCascade, false},
                      Case{SsrProtocolKind::kMultiRound, true},
                      Case{SsrProtocolKind::kMultiRound, false}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.Name();
    });

// STAT? is an admin frame: it must answer on a bare connection (no hello,
// no session), never be taken for the hello, and leave the connection
// usable. Empty session-latency histograms are omitted from the
// exposition, so the bare query must NOT mention them; after one real
// session the same (still-open) admin connection must see them populated.
TEST(NetPumpStats, StatQueryAnswersBareAndReflectsTraffic) {
  const Fixture f = MakeFixture(SsrProtocolKind::kIblt2, true, 5);
  SyncService service;
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  int admin[2];
  int session[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, admin), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, session), 0);
  ASSERT_TRUE(pump.AdoptConnection(admin[0]).ok());
  ASSERT_TRUE(pump.AdoptConnection(session[0]).ok());

  Result<std::string> before = Status::Ok();
  Result<std::string> after = Status::Ok();
  size_t after_queries = 0;
  ClientResult client;
  std::thread client_thread([&] {
    before = QueryStatsOverFd(admin[1]);
    client = RunClient(session[1], SsrProtocolKind::kIblt2, set_id, f);
    ::close(session[1]);
    // The client returns once ITS half finishes — the pump may not have
    // digested the final frame yet, and the exposition is live, not
    // barriered. Each query forces a full pump round-trip, so poll until
    // the session shows up finalized.
    for (after_queries = 0; after_queries < 100; ++after_queries) {
      after = QueryStatsOverFd(admin[1]);
      if (!after.ok() || after.value().find("setrec_sessions_completed{} 1") !=
                             std::string::npos) {
        break;
      }
    }
    ::close(admin[1]);
  });
  pump.DrainConnections();
  client_thread.join();

  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().rfind("# setrec-metrics v2\n", 0), 0u);
  EXPECT_NE(before.value().find("setrec_pump_stat_requests"),
            std::string::npos);
  EXPECT_NE(before.value().find("rate setrec_sessions_per_sec"),
            std::string::npos);
  EXPECT_NE(before.value().find("setrec_sessions_completed{} 0"),
            std::string::npos);
  EXPECT_EQ(before.value().find("setrec_session_latency_ns"),
            std::string::npos);

  ASSERT_TRUE(client.outcome.ok()) << client.outcome.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after.value().find("setrec_sessions_completed{} 1"),
            std::string::npos);
  EXPECT_NE(after.value().find(
                "setrec_session_latency_ns{proto=\"iblt2\",codec=\"dense\"}"),
            std::string::npos);

  // Admin traffic is invisible to the session layer: one session, no
  // protocol errors, and every STAT? hit counted.
  std::vector<SessionResult> results = pump.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(pump.stats().protocol_errors, 0u);
  EXPECT_EQ(pump.SnapshotPumpMetrics().stat_requests, 2u + after_queries);
}

TEST(NetPumpTcp, ConcurrentClientsOverLoopDevice) {
  SyncService service;
  // One registered server set shared by all clients (the memoization path).
  const Fixture base = MakeFixture(SsrProtocolKind::kIblt2, true, 2);
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(base.alice));
  NetPump pump(&service);
  Result<uint16_t> port = pump.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  constexpr int kClients = 6;
  const SsrProtocolKind kinds[] = {
      SsrProtocolKind::kNaive, SsrProtocolKind::kIblt2,
      SsrProtocolKind::kCascade, SsrProtocolKind::kMultiRound,
      SsrProtocolKind::kIblt2, SsrProtocolKind::kCascade};
  std::vector<ClientResult> client_results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const size_t idx = static_cast<size_t>(i);
      Fixture f = base;
      // Each client drifts independently from the shared server set.
      f.bob[static_cast<size_t>(i) % f.bob.size()].push_back(
          (uint64_t{1} << 40) + static_cast<uint64_t>(i));
      f.bob = Canonicalize(std::move(f.bob));
      f.known_d = 6;
      Result<int> fd = ConnectTcp("127.0.0.1", port.value());
      if (!fd.ok()) {
        client_results[idx].outcome = fd.status();
        return;
      }
      client_results[idx] = RunClient(fd.value(), kinds[idx], set_id, f);
      ::close(fd.value());
    });
  }
  // Serve until every client session finished (clients connect at their
  // own pace, so the connection set can transiently be empty).
  size_t done = 0;
  for (int spins = 0; spins < 20000 && done < kClients; ++spins) {
    pump.PumpOnce(10);
    for (SessionResult& r : pump.TakeResults()) {
      EXPECT_TRUE(r.status.ok()) << r.label << ": " << r.status.ToString();
      ++done;
    }
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(done, static_cast<size_t>(kClients));
  for (int i = 0; i < kClients; ++i) {
    const size_t slot = static_cast<size_t>(i);
    ASSERT_TRUE(client_results[slot].outcome.ok())
        << "client " << i << ": "
        << client_results[slot].outcome.status().ToString();
    EXPECT_EQ(client_results[slot].outcome.value().recovered,
              Canonicalize(base.alice))
        << "client " << i;
  }
  EXPECT_EQ(pump.stats().protocol_errors, 0u);
  EXPECT_GE(pump.stats().accepted, static_cast<size_t>(kClients));
}

TEST(NetPumpUnix, SessionOverUnixSocket) {
  const Fixture f = MakeFixture(SsrProtocolKind::kCascade, true, 3);
  SyncService service;
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  const std::string path =
      "/tmp/setrec_net_test_" + std::to_string(::getpid()) + ".sock";
  ASSERT_TRUE(pump.ListenUnix(path).ok());

  ClientResult client;
  std::thread client_thread([&] {
    Result<int> fd = ConnectUnix(path);
    if (!fd.ok()) {
      client.outcome = fd.status();
      return;
    }
    client = RunClient(fd.value(), SsrProtocolKind::kCascade, set_id, f);
    ::close(fd.value());
  });
  size_t done = 0;
  for (int spins = 0; spins < 20000 && done == 0; ++spins) {
    pump.PumpOnce(10);
    done += pump.TakeResults().size();
  }
  client_thread.join();
  ASSERT_EQ(done, 1u);
  ASSERT_TRUE(client.outcome.ok()) << client.outcome.status().ToString();
  EXPECT_EQ(client.outcome.value().recovered, Canonicalize(f.alice));
}

TEST(NetPumpFailures, MidSessionDisconnectCancelsTheSession) {
  const Fixture f = MakeFixture(SsrProtocolKind::kNaive, true, 4);
  SyncService service;
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());

  // Hello only, then hang up: the server's Alice half sends her opener and
  // parks on the verdict that never comes.
  ASSERT_TRUE(
      SendHello(sv[1], MakeHello(SsrProtocolKind::kNaive, set_id, f)).ok());
  // Give the pump a chance to admit the session and write the opener.
  for (int i = 0; i < 10; ++i) pump.PumpOnce(10);
  ::close(sv[1]);
  pump.DrainConnections();

  std::vector<SessionResult> results = pump.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(pump.stats().disconnects, 1u);
  EXPECT_EQ(service.stats().sessions_cancelled, 1u);
  EXPECT_EQ(pump.connection_count(), 0u);
}

// A pump destroyed while a session is live must end that session: its
// on_send points at a connection the pump frees, and a service left holding
// it would step it forever (RunToCompletion would never return).
TEST(NetPumpFailures, DestroyedPumpCancelsLiveSession) {
  const Fixture f = MakeFixture(SsrProtocolKind::kIblt2, true, 7);
  SyncService service;
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  {
    NetPump pump(&service);
    ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());
    ASSERT_TRUE(
        SendHello(sv[1], MakeHello(SsrProtocolKind::kIblt2, set_id, f)).ok());
    // Alice sends her opener and parks on Bob's verdict, which never comes.
    for (int i = 0; i < 20; ++i) pump.PumpOnce(10);
    ASSERT_EQ(pump.connection_count(), 1u);
    ASSERT_TRUE(pump.TakeResults().empty());
  }
  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(results[0].status.message(), "net pump shut down");
  EXPECT_FALSE(service.Step());
  ::close(sv[1]);
}

// A session admitted from the backlog has no event on its own fd that
// pass; its first frame must still reach the socket.
TEST(NetPumpOutput, BackloggedSessionFlushesWhenAdmitted) {
  const Fixture f = MakeFixture(SsrProtocolKind::kIblt2, true, 8);
  SyncServiceOptions options;
  options.max_inflight = 1;
  SyncService service(options);
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  const HelloSpec hello = MakeHello(SsrProtocolKind::kIblt2, set_id, f);
  NetPump pump(&service);
  int a[2];
  int b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  ASSERT_TRUE(pump.AdoptConnection(a[0]).ok());
  ASSERT_TRUE(pump.AdoptConnection(b[0]).ok());

  // A holds the one in-flight slot: Alice's opener reaches A's client.
  ASSERT_TRUE(SendHello(a[1], hello).ok());
  for (int i = 0; i < 20 && pump.stats().frames_out == 0; ++i) {
    pump.PumpOnce(10);
  }
  const std::vector<Channel::Message> a_frames = ReadAvailableFrames(a[1]);
  ASSERT_EQ(a_frames.size(), 1u);

  // B's session waits in the backlog and sends nothing.
  ASSERT_TRUE(SendHello(b[1], hello).ok());
  for (int i = 0; i < 5; ++i) pump.PumpOnce(10);
  EXPECT_TRUE(ReadAvailableFrames(b[1]).empty());

  // A's client hangs up: the pass that reads the EOF cancels A's session,
  // and the next pass admits B, whose opener must reach B's client.
  ::close(a[1]);
  for (int i = 0; i < 20 && pump.connection_count() == 2; ++i) {
    pump.PumpOnce(10);
  }
  ASSERT_EQ(pump.connection_count(), 1u);
  pump.PumpOnce(10);
  const std::vector<Channel::Message> b_frames = ReadAvailableFrames(b[1]);
  ASSERT_EQ(b_frames.size(), 1u);
  EXPECT_EQ(b_frames[0].from, Party::kAlice);
  EXPECT_EQ(b_frames[0].label, a_frames[0].label);
  EXPECT_EQ(b_frames[0].payload, a_frames[0].payload);

  ::close(b[1]);
  pump.DrainConnections();
}

// The first non-admin frame must be a valid hello naming a registered set;
// anything else is one protocol error and a closed connection, with no
// session submitted.
TEST(NetPumpFailures, GarbageHelloDropsConnectionWithoutSession) {
  HelloSpec unregistered;
  unregistered.protocol = SsrProtocolKind::kIblt2;
  unregistered.set_id = 42;  // The service below registers no set.
  unregistered.params = MakeFixture(SsrProtocolKind::kIblt2, true, 6).params;
  const struct {
    const char* name;
    Channel::Message first;
  } cases[] = {
      {"not a hello", Channel::Message{Party::kBob, {1, 2, 3}, "not-hello"}},
      {"unparseable hello", Channel::Message{Party::kBob, {99}, kHelloLabel}},
      {"unregistered set id", MakeHelloMessage(unregistered)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    SyncService service;
    NetPump pump(&service);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());

    ASSERT_TRUE(WriteFrameToFd(sv[1], c.first).ok());
    for (int i = 0; i < 10 && pump.connection_count() > 0; ++i) {
      pump.PumpOnce(10);
    }
    ::close(sv[1]);
    EXPECT_EQ(pump.connection_count(), 0u);
    EXPECT_EQ(pump.stats().protocol_errors, 1u);
    EXPECT_TRUE(pump.TakeResults().empty());
    EXPECT_EQ(service.stats().sessions_submitted, 0u);
  }
}

}  // namespace
}  // namespace setrec
