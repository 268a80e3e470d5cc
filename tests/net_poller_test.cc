// Poller backends + deadline-driven connection lifecycle + routing:
//
//  * Both backends (poll always; epoll on Linux) pass one shared semantics
//    suite — registration, readiness, interest-0 parking, retargeting,
//    hangup — and the pump's factory picks epoll on Linux.
//  * A NetPump reaps a half-open connection that never completes its hello
//    (handshake timeout) and an established session gone byte-silent
//    (idle timeout), with the reap counted in the pump metrics. A STAT?
//    re-arms a hello-less connection's handshake deadline, and deadlines
//    expire in arming order.
//  * MultiNetPump routes new connections to the least-loaded shard.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "core/workload.h"
#include "net/multi_pump.h"
#include "net/net_pump.h"
#include "net/poller.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "service/sharded_service.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

// ---------------------------------------------------------------------------
// The shared Poller contract, run on each backend the host can construct.

std::unique_ptr<Poller> MakeBackend(PollerKind kind) {
  return kind == PollerKind::kEpoll ? internal::MakeEpollPoller()
                                    : internal::MakePollPoller();
}

class PollerBackend : public ::testing::TestWithParam<PollerKind> {};

TEST_P(PollerBackend, ReadinessContract) {
  std::unique_ptr<Poller> poller = MakeBackend(GetParam());
  if (poller == nullptr) {
    GTEST_SKIP() << PollerKindName(GetParam()) << " unavailable here";
  }
  EXPECT_EQ(poller->kind(), GetParam());

  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  ASSERT_TRUE(poller->Add(a[0], Poller::kRead, 41).ok());
  ASSERT_TRUE(poller->Add(b[0], Poller::kRead, 42).ok());

  // Nothing ready: a zero timeout returns promptly and empty.
  std::vector<PollerEvent> events;
  Result<size_t> n = poller->Wait(0, &events);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  // One byte on `a`: exactly token 41 reports readable.
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  events.clear();
  n = poller->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(events[0].token, 41u);
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: unread data reports again.
  events.clear();
  n = poller->Wait(0, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(events[0].token, 41u);

  // Interest 0 parks the fd: same readable byte, no report.
  ASSERT_TRUE(poller->Modify(a[0], 0, 41).ok());
  events.clear();
  n = poller->Wait(0, &events);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  // Un-park with a retargeted token; both pipes ready → both reported.
  ASSERT_TRUE(poller->Modify(a[0], Poller::kRead, 141).ok());
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  events.clear();
  n = poller->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 2u);
  uint64_t seen = 0;
  for (const PollerEvent& event : events) seen |= event.token;
  EXPECT_EQ(seen, 141u | 42u);

  // Drain, close the write side: hangup (and EOF-readability) surfaces.
  char scratch[8];
  ASSERT_EQ(::read(a[0], scratch, sizeof scratch), 1);
  ASSERT_EQ(::read(b[0], scratch, sizeof scratch), 1);
  ::close(b[1]);
  events.clear();
  n = poller->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(events[0].token, 42u);
  EXPECT_TRUE(events[0].hangup || events[0].readable);

  ASSERT_TRUE(poller->Remove(a[0]).ok());
  ASSERT_TRUE(poller->Remove(b[0]).ok());
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PollerBackend,
                         ::testing::Values(PollerKind::kPoll,
                                           PollerKind::kEpoll),
                         [](const ::testing::TestParamInfo<PollerKind>&
                                param_info) {
                           return std::string(
                               PollerKindName(param_info.param));
                         });

TEST(PollerFactory, PumpBackendIsEpollOnLinux) {
#ifdef __linux__
  EXPECT_EQ(MakePoller()->kind(), PollerKind::kEpoll);
#else
  GTEST_SKIP() << "epoll is Linux-only";
#endif
}

// ---------------------------------------------------------------------------
// Deadline-driven lifecycle on a live pump.

/// Pumps until `done` or the wall deadline; returns whether `done` held.
template <typename Done>
bool PumpUntil(NetPump* pump, Done&& done, int per_pass_ms = 10,
               uint64_t budget_ns = 20'000'000'000ull) {
  const uint64_t start = obs::NowNanos();
  while (!done()) {
    if (obs::NowNanos() - start > budget_ns) return false;
    pump->PumpOnce(per_pass_ms);
  }
  return true;
}

/// Whether the pump closed its end of the socketpair whose client end is
/// `fd`: whatever it sent is drained first, then EOF reads as 0.
bool ServerClosed(int fd) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n <= 0) return n == 0;
  }
}

TEST(NetPumpTimers, HalfOpenConnectionReapedByHandshakeTimeout) {
  SyncService service;
  NetPumpOptions options;
  options.handshake_timeout_ms = 40;
  NetPump pump(&service, options);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());
  EXPECT_EQ(pump.connection_count(), 1u);

  // The client never says hello; its deadline must reap the connection
  // even though no fd event ever fires for it.
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
  EXPECT_EQ(pump.stats().closed, 1u);
  EXPECT_EQ(pump.stats().protocol_errors, 0u);  // A timeout is not garbage.
  EXPECT_EQ(pump.pump_metrics().handshake_timeouts, 1u);
  ::close(sv[1]);
}

// A STAT? on a hello-less connection re-arms its handshake deadline, which
// moves it behind every connection armed since. B, adopted after A but
// never queried, is therefore reaped first, and A is still reaped one
// timeout after its query. Order is read from the pump's counters between
// passes; A's query lands half a timeout after B's adoption, so only a
// stall that long could merge the two reaps into one pass.
TEST(NetPumpTimers, StatQueryRearmsHandshakeBehindLaterConnections) {
  SyncService service;
  NetPumpOptions options;
  options.handshake_timeout_ms = 600;
  NetPump pump(&service, options);

  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  ASSERT_TRUE(pump.AdoptConnection(a[0]).ok());
  ASSERT_TRUE(pump.AdoptConnection(b[0]).ok());
  const uint64_t adopted = obs::NowNanos();
  ASSERT_TRUE(PumpUntil(
      &pump, [&] { return obs::NowNanos() - adopted >= 300'000'000ull; }));
  ASSERT_EQ(pump.connection_count(), 2u);

  ASSERT_TRUE(WriteFrameToFd(a[1], MakeStatQueryMessage()).ok());
  ASSERT_TRUE(
      PumpUntil(&pump, [&] { return pump.pump_metrics().stat_requests == 1; }));

  ASSERT_TRUE(PumpUntil(
      &pump, [&] { return pump.pump_metrics().handshake_timeouts >= 1; }));
  EXPECT_EQ(pump.pump_metrics().handshake_timeouts, 1u);
  EXPECT_EQ(pump.connection_count(), 1u);
  EXPECT_TRUE(ServerClosed(b[1]));
  EXPECT_FALSE(ServerClosed(a[1]));

  ASSERT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
  EXPECT_EQ(pump.pump_metrics().handshake_timeouts, 2u);
  EXPECT_TRUE(ServerClosed(a[1]));
  EXPECT_EQ(pump.stats().protocol_errors, 0u);
  ::close(a[1]);
  ::close(b[1]);
}

TEST(NetPumpTimers, SilentEstablishedSessionReapedByIdleTimeout) {
  SsrWorkloadSpec spec;
  spec.num_children = 8;
  spec.child_size = 6;
  spec.changes = 2;
  spec.seed = 777;
  SsrWorkload w = MakeSsrWorkload(spec);
  SsrParams params;
  params.max_child_size = spec.child_size + 4;
  params.max_children = spec.num_children + 2;
  params.seed = 778;

  SyncService service;
  const uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(w.alice));
  NetPumpOptions options;
  options.idle_timeout_ms = 50;
  NetPump pump(&service, options);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());

  // Complete the hello so a session exists, then go silent: the client
  // never reads the server's turn nor sends its own.
  HelloSpec hello;
  hello.protocol = SsrProtocolKind::kIblt2;
  hello.set_id = set_id;
  hello.params = params;
  hello.known_d = spec.changes;
  ASSERT_TRUE(SendHello(sv[1], hello).ok());

  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
  EXPECT_EQ(pump.stats().disconnects, 1u);  // The live session was cancelled.
  EXPECT_EQ(pump.pump_metrics().idle_timeouts, 1u);

  // The cancelled session surfaces as a failed result.
  std::vector<SessionResult> results = pump.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
  ::close(sv[1]);
}

TEST(NetPumpTimers, DisabledTimeoutsKeepHalfOpenConnectionAlive) {
  SyncService service;
  NetPumpOptions options;
  options.handshake_timeout_ms = 0;  // "EOF or never": no deadline at all.
  options.idle_timeout_ms = 0;
  NetPump pump(&service, options);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());
  const uint64_t start = obs::NowNanos();
  while (obs::NowNanos() - start < 150'000'000ull) {
    pump.PumpOnce(10);
  }
  EXPECT_EQ(pump.connection_count(), 1u);
  EXPECT_EQ(pump.pump_metrics().handshake_timeouts, 0u);
  ::close(sv[1]);
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
}

// ---------------------------------------------------------------------------
// Load-aware routing across shards.

TEST(MultiPumpRouting, NewConnectionsAvoidTheLoadedShard) {
  ShardedSyncServiceOptions service_options;
  service_options.shards = 2;
  service_options.spawn_threads = false;
  ShardedSyncService service(service_options);

  // Pin synthetic load on shard 0: sessions submitted but never stepped.
  const auto empty = std::make_shared<const SetOfSets>();
  for (int i = 0; i < 4; ++i) {
    SessionSpec spec;
    spec.label = "ballast";
    spec.alice = empty;
    spec.bob = empty;
    service.shard(0)->Submit(std::move(spec));
  }
  ASSERT_EQ(service.LoadOf(0).total(), 4u);
  ASSERT_EQ(service.LoadOf(1).total(), 0u);

  MultiNetPump pump(&service);
  int pair_a[2], pair_b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_b), 0);
  // Whatever the rotating tie-break salt says, the loaded shard loses.
  EXPECT_EQ(pump.AdoptConnection(pair_a[0]), 1u);
  EXPECT_EQ(pump.AdoptConnection(pair_b[0]), 1u);
  ::close(pair_a[1]);
  ::close(pair_b[1]);
  // Pumps were never started: the queued fds are closed by the pump
  // destructors (adopt-queue drain).
}

}  // namespace
}  // namespace setrec
