// SyncService throughput: many concurrent small reconciliation sessions
// against one shared server set, driven (a) one-session-at-a-time through
// blocking Reconcile calls — the pre-service status quo — and (b) through
// the SyncService's stepped state machines with the cross-session batch
// planner, Alice-message memoization and pooled decode scratches.
//
// The headline measurements (written to BENCH_service.json by `--json`):
//   * sessions/sec for both drivers and their ratio (the service must win
//     by coalescing + memoization alone; the box may be single-core),
//   * batch-planner occupancy: keys per coalesced flush vs the sharded
//     ApplyOps threshold — per-session batches are far below it, the
//     cross-session flushes must cross it,
//   * a sharding-threshold sweep over IbltBatchOptions::sharded_min_keys
//     (the runtime knob) showing where sharded flushes engage.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/workload.h"
#include "hashing/random.h"
#include "net/multi_pump.h"
#include "net/net_pump.h"
#include "net/poller.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "service/sharded_service.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

struct Workload {
  std::shared_ptr<const SetOfSets> server;
  std::vector<std::shared_ptr<const SetOfSets>> clients;
  SsrParams params;
  size_t known_d = 0;
  std::vector<SsrProtocolKind> kinds;
};

/// One shared server set; each client drifts from it by ~d element edits.
/// `force` pins every session to one protocol (for per-protocol rows);
/// by default the population is mixed, biased to the one-round families.
Workload MakeWorkload(size_t sessions, size_t children, size_t child_size,
                      size_t d, uint64_t seed,
                      std::optional<SsrProtocolKind> force = std::nullopt) {
  SsrWorkloadSpec spec;
  spec.num_children = children;
  spec.child_size = child_size;
  spec.changes = d;
  spec.seed = seed;
  SsrWorkload base = MakeSsrWorkload(spec);

  Workload w;
  w.server = std::make_shared<SetOfSets>(base.alice);
  w.params.max_child_size = child_size + d + 2;
  w.params.max_children = children + d;
  w.params.seed = seed * 77 + 1;
  w.known_d = d + 2;
  Rng rng(seed);
  w.clients.reserve(sessions);
  w.kinds.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    SetOfSets bob = *w.server;
    for (size_t edit = 0; edit < d; ++edit) {
      size_t victim = rng.NextU64() % bob.size();
      if (edit % 2 == 0 && bob[victim].size() > 1) {
        bob[victim].erase(bob[victim].begin() +
                          static_cast<ptrdiff_t>(rng.NextU64() %
                                                 bob[victim].size()));
      } else {
        bob[victim].push_back((1ull << 42) + (rng.NextU64() & 0xfffff));
      }
    }
    w.clients.push_back(std::make_shared<SetOfSets>(
        Canonicalize(std::move(bob))));
    const uint64_t pick = rng.NextU64() % 10;
    w.kinds.push_back(force.has_value() ? *force
                      : pick < 3        ? SsrProtocolKind::kNaive
                      : pick < 7        ? SsrProtocolKind::kIblt2
                      : pick < 9        ? SsrProtocolKind::kCascade
                                        : SsrProtocolKind::kMultiRound);
  }
  return w;
}

struct DriverResult {
  double seconds = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t bytes = 0;
  size_t rounds = 0;
  ServiceStats service_stats;       // Service driver only.
  obs::MetricRegistry obs_metrics;  // Service driver only (empty when off).
};

DriverResult RunDirect(const Workload& w) {
  DriverResult r;
  r.seconds = bench::TimeSeconds([&] {
    for (size_t i = 0; i < w.clients.size(); ++i) {
      std::unique_ptr<SetsOfSetsProtocol> protocol =
          MakeSsrProtocol(w.kinds[i], w.params);
      Channel channel;
      Result<SsrOutcome> outcome = protocol->Reconcile(
          *w.server, *w.clients[i], w.known_d, &channel);
      if (outcome.ok()) {
        ++r.completed;
        r.bytes += outcome.value().stats.bytes;
        r.rounds += outcome.value().stats.rounds;
      } else {
        ++r.failed;
      }
    }
  });
  return r;
}

DriverResult RunService(const Workload& w, const IbltBatchOptions& batch,
                        size_t max_inflight = 0, bool metrics = true) {
  SyncServiceOptions options;
  options.batch = batch;
  options.max_inflight =
      max_inflight == 0 ? w.clients.size() : max_inflight;
  options.keep_recovered = false;
  options.metrics = metrics;
  SyncService service(options);
  service.RegisterSharedSet(w.server);
  DriverResult r;
  r.seconds = bench::TimeSeconds([&] {
    for (size_t i = 0; i < w.clients.size(); ++i) {
      SessionSpec session;
      session.protocol = w.kinds[i];
      session.params = w.params;
      session.alice = w.server;
      session.bob = w.clients[i];
      session.known_d = w.known_d;
      service.Submit(std::move(session));
    }
    service.RunToCompletion();
  });
  const ServiceStats& stats = service.stats();
  r.completed = stats.sessions_completed;
  r.failed = stats.sessions_failed;
  r.bytes = stats.total_bytes;
  r.rounds = stats.total_rounds;
  r.service_stats = stats;
  r.obs_metrics = service.metrics();
  return r;
}

/// The multi-core path: the same loopback workload through a
/// ShardedSyncService with `shards` driver threads.
DriverResult RunShardedService(const Workload& w,
                               const IbltBatchOptions& batch, size_t shards,
                               size_t max_inflight = 0) {
  ShardedSyncServiceOptions options;
  options.shards = shards;
  options.service.batch = batch;
  options.service.max_inflight =
      max_inflight == 0 ? w.clients.size() : max_inflight;
  options.service.keep_recovered = false;
  ShardedSyncService service(options);
  service.RegisterSharedSet(w.server);
  DriverResult r;
  r.seconds = bench::TimeSeconds([&] {
    for (size_t i = 0; i < w.clients.size(); ++i) {
      SessionSpec session;
      session.protocol = w.kinds[i];
      session.params = w.params;
      session.alice = w.server;
      session.bob = w.clients[i];
      session.known_d = w.known_d;
      service.Submit(std::move(session));
    }
    service.RunToCompletion();
  });
  const ServiceStats stats = service.AggregateStats();
  r.completed = stats.sessions_completed;
  r.failed = stats.sessions_failed;
  r.bytes = stats.total_bytes;
  r.rounds = stats.total_rounds;
  r.service_stats = stats;
  return r;
}

void PrintComparison(const char* name, const DriverResult& direct,
                     const DriverResult& service, size_t sessions,
                     const IbltBatchOptions& batch) {
  const double direct_rate = static_cast<double>(sessions) / direct.seconds;
  const double service_rate = static_cast<double>(sessions) / service.seconds;
  std::printf("%-22s %10.0f %10.0f %7.2fx   occ mean %7.0f max %7zu "
              "(thresh %zu, sharded %zu/%zu) cache %zu/%zu\n",
              name, direct_rate, service_rate, service_rate / direct_rate,
              service.service_stats.mean_flush_occupancy(),
              service.service_stats.max_flush_keys, batch.sharded_min_keys,
              service.service_stats.sharded_flushes,
              service.service_stats.flushes,
              service.service_stats.cache_hits,
              service.service_stats.cache_hits +
                  service.service_stats.cache_misses);
}

// ---------------------------------------------------------------------
// --net: split-party sessions over real sockets. The service hosts Alice
// halves behind a NetPump; a client thread drives Bob halves sequentially
// over per-session socketpairs. Reported: socket round-trips/sec (frames
// crossing the wire in either direction) and p50/p99 full-session latency
// (hello sent → outcome decoded at the client).
// ---------------------------------------------------------------------

struct NetBenchResult {
  size_t sessions = 0;
  size_t failed = 0;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t wire_frames = 0;
  double round_trips_per_sec = 0;
  double sessions_per_sec = 0;
};

NetBenchResult RunNetBench(size_t sessions) {
  Workload w = MakeWorkload(sessions, /*children=*/48, /*child_size=*/8,
                            /*d=*/2, /*seed=*/77);
  SyncService service;
  service.RegisterSharedSet(w.server);
  NetPump pump(&service);

  std::vector<int> client_fds(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0 ||
        !pump.AdoptConnection(sv[0]).ok()) {
      std::fprintf(stderr, "bench_service --net: socketpair failed\n");
      std::exit(1);
    }
    client_fds[i] = sv[1];
    // Receive timeout so a wedged server session fails the client's read
    // (and the bench) instead of blocking client.join() forever.
    timeval timeout{30, 0};
    ::setsockopt(client_fds[i], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
  }

  NetBenchResult r;
  r.sessions = sessions;
  // Client-side full-session latency: recorded into the obs histogram
  // (log-scale buckets, quantiles within one bucket of exact — the same
  // structure the service's own session metrics use). Single writer: only
  // the client thread records; join() sequences the read below.
  obs::LatencyHistogram latency;
  size_t client_failed = 0;
  r.seconds = bench::TimeSeconds([&] {
    std::thread client([&] {
      for (size_t i = 0; i < sessions; ++i) {
        const uint64_t start = obs::NowNanos();
        HelloSpec hello;
        hello.protocol = w.kinds[i];
        hello.set_id = 1;
        hello.params = w.params;
        hello.known_d = w.known_d;
        std::unique_ptr<SetsOfSetsProtocol> protocol =
            MakeSsrProtocol(w.kinds[i], w.params);
        Channel channel;
        bool ok = SendHello(client_fds[i], hello).ok();
        if (ok) {
          Result<SsrOutcome> outcome = RunBobHalfOverFd(
              *protocol, *w.clients[i], w.known_d, client_fds[i], &channel);
          ok = outcome.ok();
        }
        ::close(client_fds[i]);
        if (!ok) ++client_failed;
        latency.Record(obs::NowNanos() - start);
      }
    });
    // Bounded wait: a client that dies before its session is submitted
    // produces no SessionResult, and the bench must fail, not hang.
    size_t done = 0;
    size_t idle_spins = 0;
    while (done < sessions && idle_spins < 1200) {
      const size_t events = pump.PumpOnce(50);
      const size_t results = pump.TakeResults().size();
      done += results;
      idle_spins = (events == 0 && results == 0) ? idle_spins + 1 : 0;
    }
    client.join();
    r.failed = client_failed + (sessions - done);
  });

  r.p50_ms = static_cast<double>(latency.p50()) / 1e6;
  r.p99_ms = static_cast<double>(latency.p99()) / 1e6;
  r.wire_frames = pump.stats().frames_in + pump.stats().frames_out;
  r.round_trips_per_sec = static_cast<double>(r.wire_frames) / r.seconds;
  r.sessions_per_sec = static_cast<double>(sessions) / r.seconds;
  return r;
}

/// --shards sweep unit: the socketpair net workload against a MultiNetPump
/// (one pump thread per shard) with `shards` concurrent client threads, so
/// wire concurrency scales with the shard count being measured.
NetBenchResult RunShardedNetBench(size_t sessions, size_t shards) {
  Workload w = MakeWorkload(sessions, /*children=*/48, /*child_size=*/8,
                            /*d=*/2, /*seed=*/77);
  ShardedSyncServiceOptions service_options;
  service_options.shards = shards;
  service_options.spawn_threads = false;  // Pump threads drive the shards.
  ShardedSyncService service(service_options);
  service.RegisterSharedSet(w.server);
  MultiNetPumpOptions pump_options;
  pump_options.poll_timeout_ms = 20;
  MultiNetPump pump(&service, pump_options);

  std::vector<int> client_fds(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      std::fprintf(stderr, "bench_service --shards: socketpair failed\n");
      std::exit(1);
    }
    pump.AdoptConnection(sv[0]);
    client_fds[i] = sv[1];
    timeval timeout{30, 0};
    ::setsockopt(client_fds[i], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
  }

  NetBenchResult r;
  r.sessions = sessions;
  // One histogram per client thread (single-writer), merged after join.
  std::vector<obs::LatencyHistogram> latency(shards);
  std::atomic<size_t> client_failed{0};
  r.seconds = bench::TimeSeconds([&] {
    pump.Start();
    std::vector<std::thread> clients;
    clients.reserve(shards);
    for (size_t t = 0; t < shards; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = t; i < sessions; i += shards) {
          const uint64_t start = obs::NowNanos();
          HelloSpec hello;
          hello.protocol = w.kinds[i];
          hello.set_id = 1;
          hello.params = w.params;
          hello.known_d = w.known_d;
          std::unique_ptr<SetsOfSetsProtocol> protocol =
              MakeSsrProtocol(w.kinds[i], w.params);
          Channel channel;
          bool ok = SendHello(client_fds[i], hello).ok();
          if (ok) {
            Result<SsrOutcome> outcome = RunBobHalfOverFd(
                *protocol, *w.clients[i], w.known_d, client_fds[i],
                &channel);
            ok = outcome.ok();
          }
          ::close(client_fds[i]);
          if (!ok) client_failed.fetch_add(1);
          latency[t].Record(obs::NowNanos() - start);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    // Bounded wait for the last results to be harvested, then stop.
    for (int spin = 0; spin < 500 && pump.results_seen() < sessions;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pump.Stop();
  });
  r.failed =
      client_failed.load() + (sessions - std::min(sessions,
                                                  pump.results_seen()));
  obs::LatencyHistogram merged;
  for (const obs::LatencyHistogram& h : latency) merged.Merge(h);
  r.p50_ms = static_cast<double>(merged.p50()) / 1e6;
  r.p99_ms = static_cast<double>(merged.p99()) / 1e6;
  const NetPumpStats stats = pump.AggregateStats();
  r.wire_frames = stats.frames_in + stats.frames_out;
  r.round_trips_per_sec = static_cast<double>(r.wire_frames) / r.seconds;
  r.sessions_per_sec = static_cast<double>(sessions) / r.seconds;
  return r;
}

// ---------------------------------------------------------------------
// --net-scale + the net.scaling JSON section: session latency as the
// pump carries 512 -> 2k -> 10k concurrent TCP connections.
//
// The swarm runs in a forked child, not a thread: RLIMIT_NOFILE here is
// hard-capped at 20000 and cannot be raised, so one process cannot hold
// both ends of 10k socketpairs. The child connects N clients and holds
// them idle pre-hello; the server's handshake timeout outlasts the run,
// so every ballast connection holds a live deadline that must never fire.
// A fixed 512-session set then runs the normal hello -> Bob-half path,
// and exact p50/p99 from the sorted samples come back over a pipe. The
// parent is the server: one NetPump over TCP, so the poller watches all N
// fds every wakeup.
// ---------------------------------------------------------------------

struct NetScalePoint {
  size_t connections = 0;
  size_t measured = 0;
  size_t failed = 0;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t protocol_errors = 0;
  size_t handshake_timeouts = 0;
  size_t poll_wakeups = 0;
  double mean_ready_per_wakeup = 0;
  const char* backend = "";
};

/// The swarm child's report, sent over its result pipe as raw bytes.
struct SwarmReport {
  uint64_t connected = 0;
  uint64_t failed = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  double seconds = 0;
};

bool ReadFull(int fd, void* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t r = ::read(fd, static_cast<char*>(buf) + off, n - off);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    off += static_cast<size_t>(r);
  }
  return true;
}

void WriteFull(int fd, const void* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, static_cast<const char*>(buf) + off, n - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    off += static_cast<size_t>(w);
  }
}

[[noreturn]] void RunSwarmChild(const Workload& w, size_t connections,
                                size_t measured, int port_fd, int result_fd) {
  SwarmReport report{};
  uint16_t port = 0;
  if (ReadFull(port_fd, &port, sizeof port)) {
    ::close(port_fd);
    std::vector<int> fds;
    fds.reserve(connections);
    for (size_t i = 0; i < connections; ++i) {
      Result<int> fd = ConnectTcp("127.0.0.1", port);
      if (!fd.ok()) break;  // The parent counts the shortfall as failures.
      fds.push_back(fd.value());
    }
    report.connected = fds.size();
    std::vector<uint64_t> samples;
    if (fds.size() == connections) {
      samples.reserve(measured);
      const uint64_t swarm_start = obs::NowNanos();
      for (size_t i = 0; i < measured && i < fds.size(); ++i) {
        // A wedged server fails the read (and the point), never hangs it.
        timeval timeout{60, 0};
        ::setsockopt(fds[i], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout);
        const uint64_t start = obs::NowNanos();
        HelloSpec hello;
        hello.protocol = w.kinds[i];
        hello.set_id = 1;
        hello.params = w.params;
        hello.known_d = w.known_d;
        std::unique_ptr<SetsOfSetsProtocol> protocol =
            MakeSsrProtocol(w.kinds[i], w.params);
        Channel channel;
        bool ok = SendHello(fds[i], hello).ok();
        if (ok) {
          Result<SsrOutcome> outcome = RunBobHalfOverFd(
              *protocol, *w.clients[i], w.known_d, fds[i], &channel);
          ok = outcome.ok();
        }
        if (!ok) ++report.failed;
        samples.push_back(obs::NowNanos() - start);
      }
      report.seconds =
          static_cast<double>(obs::NowNanos() - swarm_start) / 1e9;
    }
    std::sort(samples.begin(), samples.end());
    if (!samples.empty()) {
      report.p50_ns = samples[samples.size() / 2];
      report.p99_ns =
          samples[std::min(samples.size() - 1, (samples.size() * 99) / 100)];
    }
    for (int fd : fds) ::close(fd);
  }
  WriteFull(result_fd, &report, sizeof report);
  ::close(result_fd);
  std::_Exit(0);  // Skip atexit/static destructors inherited from the parent.
}

NetScalePoint RunNetScalePoint(size_t connections, size_t measured) {
  NetScalePoint point;
  point.connections = connections;
  point.measured = measured;
  point.failed = connections;  // Until the child reports otherwise.
  Workload w = MakeWorkload(measured, /*children=*/48, /*child_size=*/8,
                            /*d=*/2, /*seed=*/77);
  int port_pipe[2], result_pipe[2];
  if (::pipe(port_pipe) != 0 || ::pipe(result_pipe) != 0) {
    std::fprintf(stderr, "bench_service --net-scale: pipe failed\n");
    return point;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = ::fork();
  if (child < 0) {
    std::fprintf(stderr, "bench_service --net-scale: fork failed\n");
    return point;
  }
  if (child == 0) {
    ::close(port_pipe[1]);
    ::close(result_pipe[0]);
    RunSwarmChild(w, connections, measured, port_pipe[0], result_pipe[1]);
  }
  ::close(port_pipe[0]);
  ::close(result_pipe[1]);

  // The pump is built only after the fork: the child must not inherit the
  // poller fd or the listener (its fd budget is the N client sockets).
  SyncService service;
  service.RegisterSharedSet(w.server);
  NetPumpOptions options;
  // Longer than the 300 s wall ceiling below: every pre-hello ballast
  // connection holds an armed handshake deadline, and none may fire.
  options.handshake_timeout_ms = 600'000;
  // The swarm connects thousands of sockets back-to-back; the default
  // backlog overflows and every overflow costs the child a 1s+ SYN
  // retransmit. The kernel clamps this to net.core.somaxconn.
  options.listen_backlog = 4096;
  NetPump pump(&service, options);
  Result<uint16_t> port = pump.ListenTcp(0);
  if (!port.ok()) {
    std::fprintf(stderr, "bench_service --net-scale: listen failed\n");
    ::close(port_pipe[1]);
    ::close(result_pipe[0]);
    ::waitpid(child, nullptr, 0);
    return point;
  }
  const uint16_t port_value = port.value();
  WriteFull(port_pipe[1], &port_value, sizeof port_value);
  ::close(port_pipe[1]);

  // Pump until the child's report arrives (read non-blocking between
  // passes), with a wall-clock ceiling so a dead child cannot hang us.
  ::fcntl(result_pipe[0], F_SETFL, O_NONBLOCK);
  SwarmReport report{};
  size_t got = 0;
  const uint64_t deadline = obs::NowNanos() + 300ull * 1'000'000'000;
  while (got < sizeof report && obs::NowNanos() < deadline) {
    pump.PumpOnce(10);
    (void)pump.TakeResults();
    ssize_t n = ::read(result_pipe[0], reinterpret_cast<char*>(&report) + got,
                       sizeof report - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
      break;
    }
  }
  ::close(result_pipe[0]);
  // The child closed every socket: reap them all before reading stats.
  for (int spin = 0; spin < 2000 && pump.connection_count() > 0; ++spin) {
    pump.PumpOnce(5);
    (void)pump.TakeResults();
  }
  int wait_status = 0;
  ::waitpid(child, &wait_status, 0);

  if (got == sizeof report) {
    point.failed = report.failed + (connections - report.connected);
  }
  point.seconds = report.seconds;
  point.p50_ms = static_cast<double>(report.p50_ns) / 1e6;
  point.p99_ms = static_cast<double>(report.p99_ns) / 1e6;
  point.protocol_errors = pump.stats().protocol_errors;
  point.handshake_timeouts = pump.pump_metrics().handshake_timeouts;
  point.poll_wakeups = pump.pump_metrics().poll_wakeups;
  const obs::LatencyHistogram& ready = pump.pump_metrics().ready_per_wakeup;
  point.mean_ready_per_wakeup =
      ready.count() > 0
          ? static_cast<double>(ready.sum()) / static_cast<double>(ready.count())
          : 0.0;
  point.backend = PollerKindName(pump.poller_kind());
  return point;
}

struct ShardSweepRow {
  size_t shards;
  double sessions_per_sec = 0;
  double seconds = 0;
  size_t failed = 0;
  NetBenchResult net;
};

/// One --shards row: the 10k mixed loopback workload through the sharded
/// service, plus the socketpair net workload through the multi-pump.
ShardSweepRow MeasureShardRow(const Workload& w, size_t shards,
                              size_t net_sessions) {
  IbltBatchOptions batch;
  ShardSweepRow row;
  row.shards = shards;
  DriverResult loopback = RunShardedService(w, batch, shards, 512);
  row.seconds = loopback.seconds;
  row.failed = loopback.failed;
  row.sessions_per_sec =
      static_cast<double>(w.clients.size()) / loopback.seconds;
  row.net = RunShardedNetBench(net_sessions, shards);
  return row;
}

// ---------------------------------------------------------------------
// Wire-codec byte accounting: identical workloads under WireCodec::kDense
// vs kSparse. Byte totals are deterministic functions of (workload, codec)
// — both drivers must agree on them bit for bit — so a single rep measures
// them exactly; only sessions/sec columns carry timing noise.
// ---------------------------------------------------------------------

struct WireRow {
  double dense_bytes_per_session = 0;
  double sparse_bytes_per_session = 0;

  double reduction() const {
    return sparse_bytes_per_session > 0
               ? dense_bytes_per_session / sparse_bytes_per_session
               : 0;
  }
};

Result<WireRow> MeasureWireBytes(Workload w) {
  WireRow row;
  const double sessions = static_cast<double>(w.clients.size());
  w.params.wire_codec = WireCodec::kDense;
  DriverResult dense = RunDirect(w);
  w.params.wire_codec = WireCodec::kSparse;
  DriverResult sparse = RunDirect(w);
  if (dense.failed != 0 || sparse.failed != 0) {
    return Unavailable("wire-bytes sessions failed");
  }
  row.dense_bytes_per_session = static_cast<double>(dense.bytes) / sessions;
  row.sparse_bytes_per_session = static_cast<double>(sparse.bytes) / sessions;
  return row;
}

// ---------------------------------------------------------------------
// Instrumentation overhead: how much the metrics layer costs the headline
// service driver. Two measurements, one stable and one honest:
//  * model: (instrumented events) x (measured clock-read + Record cost,
//    from a tight microbench loop) / runtime. Deterministic up to the
//    per-op cost, so the <=2% gate rides on it even on this noisy VM.
//  * A/B: min-of-reps seconds with options.metrics on vs off. Reported as
//    raw evidence; +-30% scheduler bursts make it unusable as a gate.
// ---------------------------------------------------------------------

struct ObsReport {
  double record_cost_ns = 0;     ///< One NowNanos + histogram Record.
  size_t histogram_samples = 0;  ///< Across the whole registry.
  double model_pct = 0;          ///< Modeled overhead, % of runtime.
  double ab_pct = 0;             ///< (min_on - min_off) / min_off, >= 0.
  double min_seconds_on = 0;
  double min_seconds_off = 0;
  size_t session_samples = 0;
  size_t round_samples = 0;
  size_t flush_samples = 0;
  size_t occupancy_samples = 0;
  double p50_session_ms = 0;
  double p99_session_ms = 0;
};

double MeasureRecordCostNs() {
  obs::LatencyHistogram h;
  constexpr int kIters = 1'000'000;
  const uint64_t t0 = obs::NowNanos();
  for (int i = 0; i < kIters; ++i) {
    h.Record(obs::NowNanos() - t0);
  }
  const uint64_t t1 = obs::NowNanos();
  return static_cast<double>(t1 - t0) / kIters;
}

size_t CountRegistrySamples(const obs::MetricRegistry& m) {
  size_t samples = m.flush_latency.count() + m.flush_occupancy.count() +
                   m.lease_wait.count() + m.lease_hold.count();
  for (size_t k = 0; k < obs::kProtocolKinds; ++k) {
    for (size_t c = 0; c < obs::kWireCodecs; ++c) {
      samples += m.session_latency[k][c].count() + m.round_latency[k][c].count();
    }
  }
  return samples;
}

obs::LatencyHistogram MergedSessionLatency(const obs::MetricRegistry& m) {
  obs::LatencyHistogram all;
  for (size_t k = 0; k < obs::kProtocolKinds; ++k) {
    for (size_t c = 0; c < obs::kWireCodecs; ++c) {
      all.Merge(m.session_latency[k][c]);
    }
  }
  return all;
}

/// Fills the model/derived fields of `r` from an instrumented run
/// (`on` = min-of-reps seconds with metrics enabled, `m` its registry).
void FinishObsReport(double on_seconds, double off_seconds,
                     const obs::MetricRegistry& m, ObsReport* r) {
  r->min_seconds_on = on_seconds;
  r->min_seconds_off = off_seconds;
  r->record_cost_ns = MeasureRecordCostNs();
  r->histogram_samples = CountRegistrySamples(m);
  // Most instrumented events pay one clock read + one Record; a round
  // boundary pays an extra clock read. 2x is a conservative per-sample
  // budget that still lands far under the gate.
  const double cost_ns =
      2.0 * r->record_cost_ns * static_cast<double>(r->histogram_samples);
  r->model_pct = on_seconds > 0 ? cost_ns / (on_seconds * 1e9) * 100.0 : 0;
  r->ab_pct = off_seconds > 0
                  ? std::max(0.0, (on_seconds - off_seconds) / off_seconds) *
                        100.0
                  : 0;
  obs::LatencyHistogram session = MergedSessionLatency(m);
  r->session_samples = session.count();
  size_t rounds = 0;
  for (size_t k = 0; k < obs::kProtocolKinds; ++k) {
    for (size_t c = 0; c < obs::kWireCodecs; ++c) {
      rounds += m.round_latency[k][c].count();
    }
  }
  r->round_samples = rounds;
  r->flush_samples = m.flush_latency.count();
  r->occupancy_samples = m.flush_occupancy.count();
  r->p50_session_ms = static_cast<double>(session.p50()) / 1e6;
  r->p99_session_ms = static_cast<double>(session.p99()) / 1e6;
}

/// The obs smoke gate (scripts/check.sh obs lane): every load-bearing
/// histogram saw samples, and the modeled overhead stays under 2%.
int CheckObsGate(const ObsReport& r) {
  int failures = 0;
  struct {
    const char* name;
    size_t samples;
  } rows[] = {{"session_latency", r.session_samples},
              {"round_latency", r.round_samples},
              {"flush_latency", r.flush_samples},
              {"flush_occupancy", r.occupancy_samples}};
  for (const auto& row : rows) {
    if (row.samples == 0) {
      std::fprintf(stderr, "bench_service: obs histogram %s has 0 samples\n",
                   row.name);
      ++failures;
    }
  }
  if (r.model_pct > 2.0) {
    std::fprintf(stderr,
                 "bench_service: obs overhead %.3f%% exceeds 2%% "
                 "(%zu samples x %.1f ns over %.3f s)\n",
                 r.model_pct, r.histogram_samples, r.record_cost_ns,
                 r.min_seconds_on);
    ++failures;
  }
  return failures;
}

bool FindJsonNumber(const std::string& text, const std::string& key,
                    double* out) {
  const size_t key_at = text.find("\"" + key + "\":");
  if (key_at == std::string::npos) return false;
  const size_t colon = text.find(':', key_at);
  if (colon == std::string::npos) return false;
  *out = std::strtod(text.c_str() + colon + 1, nullptr);
  return true;
}

/// --check-bytes[=PATH]: regression guard for CI / the verify skill.
/// Re-measures the standard 10k mixed workload's deterministic
/// bytes-per-session under both codecs and fails (exit 1) if either
/// regressed more than 5% against the committed BENCH_service.json.
int RunCheckBytes(const char* committed_path) {
  const size_t kSessions = 10'000;
  Workload w = MakeWorkload(kSessions, /*children=*/64, /*child_size=*/8,
                            /*d=*/2, /*seed=*/41);
  Result<WireRow> measured = MeasureWireBytes(std::move(w));
  if (!measured.ok()) {
    std::fprintf(stderr, "bench_service --check-bytes: %s\n",
                 measured.status().ToString().c_str());
    return 1;
  }

  std::FILE* f = std::fopen(committed_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "bench_service --check-bytes: cannot read %s "
                 "(run from the repo root, or pass --check-bytes=PATH)\n",
                 committed_path);
    return 1;
  }
  std::string committed;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    committed.append(chunk, n);
  }
  std::fclose(f);

  WireRow want;
  if (!FindJsonNumber(committed, "dense_bytes_per_session",
                      &want.dense_bytes_per_session) ||
      !FindJsonNumber(committed, "sparse_bytes_per_session",
                      &want.sparse_bytes_per_session)) {
    std::fprintf(stderr,
                 "bench_service --check-bytes: %s has no wire section "
                 "(regenerate with --json)\n",
                 committed_path);
    return 1;
  }

  constexpr double kTolerance = 1.05;  // >5% growth is a regression.
  int failures = 0;
  struct {
    const char* name;
    double now;
    double committed;
  } rows[] = {
      {"dense", measured.value().dense_bytes_per_session,
       want.dense_bytes_per_session},
      {"sparse", measured.value().sparse_bytes_per_session,
       want.sparse_bytes_per_session},
  };
  for (const auto& row : rows) {
    const bool ok = row.now <= row.committed * kTolerance;
    std::printf("%-7s %10.1f bytes/session  committed %10.1f  %s\n",
                row.name, row.now, row.committed,
                ok ? "ok" : "REGRESSED (>5%)");
    if (!ok) ++failures;
  }
  std::printf("reduction %.2fx (committed %.2fx)\n",
              measured.value().reduction(),
              want.dense_bytes_per_session / want.sparse_bytes_per_session);
  return failures == 0 ? 0 : 1;
}

int RunJsonSuite() {
  // The acceptance workload: 10k concurrent small sessions. Single-core
  // noisy VM with bursty interference: interleave the drivers and take the
  // MEDIAN of 5 reps each (a burst can land in either driver's rep; the
  // median discards it symmetrically, unlike best-of).
  const size_t kSessions = 10'000;
  const size_t kWindow = 512;
  const int kReps = 5;
  Workload w = MakeWorkload(kSessions, /*children=*/64, /*child_size=*/8,
                            /*d=*/2, /*seed=*/41);

  IbltBatchOptions batch;  // Library default threshold (64k keys).
  std::vector<DriverResult> direct_reps;
  std::vector<DriverResult> service_reps;
  std::vector<double> service_off_secs;
  for (int rep = 0; rep < kReps; ++rep) {
    direct_reps.push_back(RunDirect(w));
    service_reps.push_back(RunService(w, batch, kWindow));
    // Metrics-off contrast rep, interleaved so bursts land on every arm.
    if (rep < 3) {
      service_off_secs.push_back(
          RunService(w, batch, kWindow, /*metrics=*/false).seconds);
    }
  }
  auto by_seconds = [](const DriverResult& a, const DriverResult& b) {
    return a.seconds < b.seconds;
  };
  std::sort(direct_reps.begin(), direct_reps.end(), by_seconds);
  std::sort(service_reps.begin(), service_reps.end(), by_seconds);
  DriverResult direct = direct_reps[kReps / 2];
  DriverResult service = service_reps[kReps / 2];
  if (direct.failed != 0 || service.failed != 0) {
    std::fprintf(stderr, "bench_service: %zu direct / %zu service failures\n",
                 direct.failed, service.failed);
    return 1;
  }
  if (direct.bytes != service.bytes || direct.rounds != service.rounds) {
    std::fprintf(stderr,
                 "bench_service: transcript totals diverged "
                 "(direct %zu B / %zu rounds, service %zu B / %zu rounds)\n",
                 direct.bytes, direct.rounds, service.bytes, service.rounds);
    return 1;
  }
  const double direct_rate = static_cast<double>(kSessions) / direct.seconds;
  const double service_rate = static_cast<double>(kSessions) / service.seconds;

  // Threshold sweep on a smaller population (the knob is runtime-tunable;
  // occupancy is deterministic, timing is the noisy column).
  struct SweepRow {
    size_t threshold;
    double seconds;
    size_t sharded;
    size_t flushes;
    size_t max_keys;
  };
  std::vector<SweepRow> sweep;
  Workload sw = MakeWorkload(2000, 64, 8, 2, 43);
  for (size_t threshold : {size_t{4} << 10, size_t{16} << 10, size_t{64} << 10,
                           size_t{256} << 10}) {
    IbltBatchOptions sweep_batch;
    sweep_batch.sharded_min_keys = threshold;
    DriverResult row = RunService(sw, sweep_batch, kWindow);
    sweep.push_back({threshold, row.seconds,
                     row.service_stats.sharded_flushes,
                     row.service_stats.flushes,
                     row.service_stats.max_flush_keys});
  }

  char buf[512];
  std::string json = "{\n  \"bench\": \"service\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"workload\": {\"sessions\": %zu, \"children\": 64, "
      "\"child_size\": 8, \"d\": 2, \"window\": %zu, \"protocol_mix\": "
      "\"naive:3 iblt2:4 cascade:2 multiround:1\", \"median_of\": 5},\n",
      kSessions, kWindow);
  json += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"direct\": {\"sessions_per_sec\": %.0f, \"seconds\": %.3f, "
      "\"bytes\": %zu, \"rounds\": %zu},\n",
      direct_rate, direct.seconds, direct.bytes, direct.rounds);
  json += buf;
  const ServiceStats& stats = service.service_stats;
  std::snprintf(
      buf, sizeof buf,
      "  \"service\": {\"sessions_per_sec\": %.0f, \"seconds\": %.3f, "
      "\"bytes\": %zu, \"rounds\": %zu, \"speedup\": %.2f,\n"
      "    \"flushes\": %zu, \"mean_flush_keys\": %.0f, "
      "\"max_flush_keys\": %zu,\n"
      "    \"sharded_min_keys\": %zu, \"sharded_flushes\": %zu,\n"
      "    \"cache_hits\": %zu, \"cache_misses\": %zu, "
      "\"estimator_jobs\": %zu, \"resumes\": %zu, \"steps\": %zu},\n",
      service_rate, service.seconds, service.bytes, service.rounds,
      service_rate / direct_rate, stats.flushes,
      stats.mean_flush_occupancy(), stats.max_flush_keys,
      batch.sharded_min_keys, stats.sharded_flushes, stats.cache_hits,
      stats.cache_misses, stats.estimator_jobs, stats.resumes, stats.steps);
  json += buf;
  json += "  \"threshold_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::snprintf(
        buf, sizeof buf,
        "    {\"sharded_min_keys\": %zu, \"seconds\": %.3f, "
        "\"sharded_flushes\": %zu, \"flushes\": %zu, "
        "\"max_flush_keys\": %zu}%s\n",
        sweep[i].threshold, sweep[i].seconds, sweep[i].sharded,
        sweep[i].flushes, sweep[i].max_keys,
        i + 1 < sweep.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";

  // Split-party sessions over real sockets (the src/net/ pump).
  NetBenchResult net = RunNetBench(/*sessions=*/512);
  if (net.failed != 0) {
    std::fprintf(stderr, "bench_service: %zu net sessions failed\n",
                 net.failed);
    return 1;
  }
  std::snprintf(
      buf, sizeof buf,
      "  \"net\": {\"sessions\": %zu, \"transport\": \"socketpair\", "
      "\"seconds\": %.3f, \"sessions_per_sec\": %.0f,\n"
      "    \"round_trips_per_sec\": %.0f, \"wire_frames\": %zu, "
      "\"p50_session_ms\": %.3f, \"p99_session_ms\": %.3f,\n",
      net.sessions, net.seconds, net.sessions_per_sec,
      net.round_trips_per_sec, net.wire_frames, net.p50_ms, net.p99_ms);
  json += buf;

  // Concurrent-connection sweep: the same measured-session set under
  // growing idle-connection ballast. The headline claim is the flat p99 —
  // poller cost per wakeup must not grow with watched (quiet) fds.
  json += "    \"scaling\": [\n";
  const size_t scale_points[] = {512, 2048, 10240};
  std::vector<NetScalePoint> scaling;
  for (size_t connections : scale_points) {
    scaling.push_back(RunNetScalePoint(connections, /*measured=*/512));
    const NetScalePoint& p = scaling.back();
    if (p.failed != 0 || p.protocol_errors != 0 ||
        p.handshake_timeouts != 0) {
      std::fprintf(stderr,
                   "bench_service: net scaling failures at %zu connections "
                   "(%zu failed, %zu protocol errors, %zu handshake "
                   "timeouts)\n",
                   connections, p.failed, p.protocol_errors,
                   p.handshake_timeouts);
      return 1;
    }
    std::printf("net-scale %5zu conns  p50 %.2fms p99 %.2fms  "
                "(%s, %.1f ready/wakeup)\n",
                p.connections, p.p50_ms, p.p99_ms, p.backend,
                p.mean_ready_per_wakeup);
    std::snprintf(
        buf, sizeof buf,
        "      {\"connections\": %zu, \"measured_sessions\": %zu, "
        "\"seconds\": %.3f, \"backend\": \"%s\",\n"
        "       \"p50_session_ms\": %.3f, \"p99_session_ms\": %.3f, "
        "\"poll_wakeups\": %zu, \"mean_ready_per_wakeup\": %.2f}%s\n",
        p.connections, p.measured, p.seconds, p.backend, p.p50_ms, p.p99_ms,
        p.poll_wakeups, p.mean_ready_per_wakeup,
        connections == scale_points[2] ? "" : ",");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "    ],\n    \"p99_flatness_10k_over_512\": %.2f},\n",
                scaling.back().p99_ms / std::max(0.001, scaling.front().p99_ms));
  json += buf;

  // Wire-codec byte accounting at the acceptance workload: the dense
  // numbers come from the timed suite above; one sparse direct rep pins
  // the (deterministic) sparse bytes, and a sparse service rep both
  // cross-checks the totals and gives an indicative sparse rate.
  Workload sparse_w = w;
  sparse_w.params.wire_codec = WireCodec::kSparse;
  DriverResult sparse_direct = RunDirect(sparse_w);
  DriverResult sparse_service = RunService(sparse_w, batch, kWindow);
  if (sparse_direct.failed != 0 || sparse_service.failed != 0 ||
      sparse_direct.bytes != sparse_service.bytes) {
    std::fprintf(stderr,
                 "bench_service: sparse codec divergence "
                 "(%zu/%zu failures, direct %zu B vs service %zu B)\n",
                 sparse_direct.failed, sparse_service.failed,
                 sparse_direct.bytes, sparse_service.bytes);
    return 1;
  }
  const double dense_bps =
      static_cast<double>(direct.bytes) / static_cast<double>(kSessions);
  const double sparse_bps = static_cast<double>(sparse_direct.bytes) /
                            static_cast<double>(kSessions);
  std::snprintf(
      buf, sizeof buf,
      "  \"wire\": {\"sessions\": %zu, "
      "\"dense_bytes_per_session\": %.1f, "
      "\"sparse_bytes_per_session\": %.1f, \"reduction\": %.2f,\n"
      "    \"sparse_service_sessions_per_sec\": %.0f,\n",
      kSessions, dense_bps, sparse_bps, dense_bps / sparse_bps,
      static_cast<double>(kSessions) / sparse_service.seconds);
  json += buf;
  json += "    \"per_protocol\": [\n";
  for (int kind = 0; kind < 4; ++kind) {
    Result<WireRow> row = MeasureWireBytes(
        MakeWorkload(2000, 48, 8, 2, 21 + static_cast<uint64_t>(kind),
                     static_cast<SsrProtocolKind>(kind)));
    if (!row.ok()) {
      std::fprintf(stderr, "bench_service: per-protocol wire row failed\n");
      return 1;
    }
    std::snprintf(
        buf, sizeof buf,
        "      {\"protocol\": \"%s\", \"dense_bytes_per_session\": %.1f, "
        "\"sparse_bytes_per_session\": %.1f, \"reduction\": %.2f}%s\n",
        SsrProtocolKindName(static_cast<SsrProtocolKind>(kind)),
        row.value().dense_bytes_per_session,
        row.value().sparse_bytes_per_session, row.value().reduction(),
        kind + 1 < 4 ? "," : "");
    json += buf;
  }
  json += "    ],\n";
  json +=
      "    \"note\": \"8-byte cell checksums are uniform hashes "
      "(incompressible), which floors the reduction; naive compresses "
      "best (zero-suppressed key bytes), multiround's fingerprint tables "
      "ride the raw fallback\"},\n";

  // Shard-count sweep: the same 10k mixed workload through the
  // ShardedSyncService at 1, 2, 4, ... shards (always through 4 so the
  // row set is comparable across machines; hardware_concurrency says how
  // many of those shard counts have real cores behind them on THIS box).
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> shard_counts{1, 2, 4};
  for (size_t s = 8; s <= hc; s *= 2) shard_counts.push_back(s);
  std::vector<ShardSweepRow> shard_rows;
  for (size_t shards : shard_counts) {
    shard_rows.push_back(MeasureShardRow(w, shards, /*net_sessions=*/512));
    const ShardSweepRow& row = shard_rows.back();
    if (row.failed != 0 || row.net.failed != 0) {
      std::fprintf(stderr,
                   "bench_service: shard sweep failures at shards=%zu "
                   "(%zu loopback, %zu net)\n",
                   shards, row.failed, row.net.failed);
      return 1;
    }
    std::printf("shards=%zu  %8.0f sessions/sec  net %.0f round-trips/sec "
                "p50 %.2fms p99 %.2fms\n",
                row.shards, row.sessions_per_sec,
                row.net.round_trips_per_sec, row.net.p50_ms, row.net.p99_ms);
  }
  std::snprintf(buf, sizeof buf,
                "  \"sharded\": {\"hardware_concurrency\": %u, "
                "\"workload_sessions\": %zu, \"net_sessions\": 512,\n"
                "    \"sweep\": [\n",
                hc, kSessions);
  json += buf;
  for (size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardSweepRow& row = shard_rows[i];
    std::snprintf(
        buf, sizeof buf,
        "      {\"shards\": %zu, \"sessions_per_sec\": %.0f, "
        "\"seconds\": %.3f,\n"
        "       \"net\": {\"sessions_per_sec\": %.0f, "
        "\"round_trips_per_sec\": %.0f, \"p50_session_ms\": %.3f, "
        "\"p99_session_ms\": %.3f}}%s\n",
        row.shards, row.sessions_per_sec, row.seconds,
        row.net.sessions_per_sec, row.net.round_trips_per_sec,
        row.net.p50_ms, row.net.p99_ms,
        i + 1 < shard_rows.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "    ],\n    \"speedup_4_over_1\": %.2f},\n",
                shard_rows[2].sessions_per_sec /
                    shard_rows[0].sessions_per_sec);
  json += buf;

  // Instrumentation overhead on the headline run (which keeps metrics ON
  // — the committed speedup band includes the cost being measured here).
  ObsReport obs_report;
  FinishObsReport(service_reps[0].seconds,
                  *std::min_element(service_off_secs.begin(),
                                    service_off_secs.end()),
                  service.obs_metrics, &obs_report);
  std::snprintf(
      buf, sizeof buf,
      "  \"obs\": {\"metrics_enabled\": true, \"record_cost_ns\": %.1f, "
      "\"overhead_model_pct\": %.4f,\n"
      "    \"ab_min_seconds_on\": %.3f, \"ab_min_seconds_off\": %.3f, "
      "\"ab_delta_pct\": %.2f,\n"
      "    \"histogram_samples\": {\"total\": %zu, \"session\": %zu, "
      "\"round\": %zu, \"flush\": %zu, \"flush_occupancy\": %zu},\n"
      "    \"session_latency_ms\": {\"p50\": %.3f, \"p99\": %.3f}}\n",
      obs_report.record_cost_ns, obs_report.model_pct,
      obs_report.min_seconds_on, obs_report.min_seconds_off,
      obs_report.ab_pct, obs_report.histogram_samples,
      obs_report.session_samples, obs_report.round_samples,
      obs_report.flush_samples, obs_report.occupancy_samples,
      obs_report.p50_session_ms, obs_report.p99_session_ms);
  json += buf;
  json += "}\n";
  if (CheckObsGate(obs_report) != 0) return 1;

  std::FILE* f = std::fopen("BENCH_service.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_service: cannot write BENCH_service.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("direct  %8.0f sessions/sec\nservice %8.0f sessions/sec "
              "(%.2fx)\nmax flush occupancy %zu keys (threshold %zu, "
              "%zu/%zu sharded flushes)\n"
              "net     %8.0f sessions/sec over socketpair "
              "(%.0f round-trips/sec, p50 %.2fms, p99 %.2fms)\n"
              "wrote BENCH_service.json\n",
              direct_rate, service_rate, service_rate / direct_rate,
              stats.max_flush_keys, batch.sharded_min_keys,
              stats.sharded_flushes, stats.flushes, net.sessions_per_sec,
              net.round_trips_per_sec, net.p50_ms, net.p99_ms);
  return 0;
}

/// The headline 10k direct-vs-service comparison alone (median of 3,
/// interleaved) — a fast signal for perf work, without the sweeps the
/// full --json suite runs.
int RunQuickSuite() {
  const size_t kSessions = 10'000;
  const int kReps = 3;
  Workload w = MakeWorkload(kSessions, /*children=*/64, /*child_size=*/8,
                            /*d=*/2, /*seed=*/41);
  IbltBatchOptions batch;
  std::vector<double> direct_secs, service_secs, off_secs;
  obs::MetricRegistry metrics;
  for (int rep = 0; rep < kReps; ++rep) {
    direct_secs.push_back(RunDirect(w).seconds);
    DriverResult on = RunService(w, batch, 512);
    service_secs.push_back(on.seconds);
    metrics = on.obs_metrics;
    off_secs.push_back(RunService(w, batch, 512, /*metrics=*/false).seconds);
  }
  std::sort(direct_secs.begin(), direct_secs.end());
  std::sort(service_secs.begin(), service_secs.end());
  const double direct_rate =
      static_cast<double>(kSessions) / direct_secs[kReps / 2];
  const double service_rate =
      static_cast<double>(kSessions) / service_secs[kReps / 2];
  std::printf("direct  %8.0f sessions/sec\nservice %8.0f sessions/sec "
              "(%.2fx)\n",
              direct_rate, service_rate, service_rate / direct_rate);

  ObsReport obs_report;
  FinishObsReport(service_secs.front(),
                  *std::min_element(off_secs.begin(), off_secs.end()),
                  metrics, &obs_report);
  std::printf("obs     %zu histogram samples (session %zu, round %zu, "
              "flush %zu/%zu), overhead %.3f%% modeled "
              "(%.1f ns/record), A/B delta %.1f%%\n",
              obs_report.histogram_samples, obs_report.session_samples,
              obs_report.round_samples, obs_report.flush_samples,
              obs_report.occupancy_samples, obs_report.model_pct,
              obs_report.record_cost_ns, obs_report.ab_pct);
  return CheckObsGate(obs_report) == 0 ? 0 : 1;
}

int RunShardsSuite(size_t shards) {
  bench::Header("service --shards",
                "10k mixed sessions through the sharded service");
  const size_t kSessions = 10'000;
  Workload w = MakeWorkload(kSessions, /*children=*/64, /*child_size=*/8,
                            /*d=*/2, /*seed=*/41);
  ShardSweepRow row = MeasureShardRow(w, shards, /*net_sessions=*/512);
  std::printf("shards                %zu (hardware_concurrency %u)\n",
              row.shards, std::thread::hardware_concurrency());
  std::printf("loopback sessions/sec %.0f (%zu sessions, %zu failed)\n",
              row.sessions_per_sec, kSessions, row.failed);
  std::printf("net sessions/sec      %.0f (512 sessions, %zu failed)\n",
              row.net.sessions_per_sec, row.net.failed);
  std::printf("net round-trips/sec   %.0f\n", row.net.round_trips_per_sec);
  std::printf("net latency           p50 %.3f ms, p99 %.3f ms\n",
              row.net.p50_ms, row.net.p99_ms);
  return (row.failed == 0 && row.net.failed == 0) ? 0 : 1;
}

int RunNetSuite() {
  bench::Header("service --net",
                "split-party sessions over real sockets (NetPump)");
  NetBenchResult net = RunNetBench(/*sessions=*/512);
  std::printf("sessions      %zu (%zu failed)\n", net.sessions, net.failed);
  std::printf("sessions/sec  %.0f\n", net.sessions_per_sec);
  std::printf("round-trips   %zu frames, %.0f round-trips/sec\n",
              net.wire_frames, net.round_trips_per_sec);
  std::printf("latency       p50 %.3f ms, p99 %.3f ms (hello -> outcome)\n",
              net.p50_ms, net.p99_ms);
  return net.failed == 0 ? 0 : 1;
}

/// --net-scale=N: one sweep point as a CI gate — N concurrent connections,
/// each pre-hello one holding an armed handshake deadline, must carry the
/// measured sessions with zero failures, zero protocol errors, zero
/// handshake timeouts, and a sane p99 (the bound is generous: it catches a
/// poller melting under fd count, not scheduler noise).
int RunNetScaleSuite(size_t connections) {
  bench::Header("service --net-scale",
                "session latency under concurrent-connection ballast");
  const size_t measured = std::min<size_t>(connections, 512);
  NetScalePoint p = RunNetScalePoint(connections, measured);
  std::printf("connections     %zu (%zu measured sessions, %zu failed)\n",
              p.connections, p.measured, p.failed);
  std::printf("backend         %s\n", p.backend);
  std::printf("latency         p50 %.3f ms, p99 %.3f ms\n", p.p50_ms,
              p.p99_ms);
  std::printf("poller          %zu wakeups, %.2f mean ready fds/wakeup\n",
              p.poll_wakeups, p.mean_ready_per_wakeup);
  std::printf("protocol errors %zu\n", p.protocol_errors);
  std::printf("handshake timeouts %zu\n", p.handshake_timeouts);
  const double kP99CeilingMs = 500.0;
  if (p.failed != 0 || p.protocol_errors != 0 || p.handshake_timeouts != 0) {
    std::fprintf(stderr, "bench_service --net-scale: FAILED (errors)\n");
    return 1;
  }
  if (p.p99_ms > kP99CeilingMs) {
    std::fprintf(stderr,
                 "bench_service --net-scale: FAILED (p99 %.1f ms > %.0f ms)\n",
                 p.p99_ms, kP99CeilingMs);
    return 1;
  }
  return 0;
}

void RunTableSuite() {
  bench::Header("service", "sessions/sec: direct loop vs SyncService");
  std::printf("%-22s %10s %10s %8s\n", "workload", "direct/s", "service/s",
              "speedup");
  IbltBatchOptions batch;
  for (int kind = 0; kind < 4; ++kind) {
    Workload w = MakeWorkload(2000, 48, 8, 2, static_cast<uint64_t>(21 + kind),
                              static_cast<SsrProtocolKind>(kind));
    DriverResult direct = RunDirect(w);
    DriverResult service = RunService(w, batch, 1024);
    char name[64];
    std::snprintf(name, sizeof name, "pure %s",
                  SsrProtocolKindName(static_cast<SsrProtocolKind>(kind)));
    PrintComparison(name, direct, service, 2000, batch);
  }
  for (size_t sessions : {size_t{2000}}) {
    for (size_t children : {size_t{48}}) {
      Workload w = MakeWorkload(sessions, children, 8, 2, 11 + sessions);
      DriverResult direct = RunDirect(w);
      for (size_t window : {size_t{256}, size_t{1024}, size_t{0}}) {
        DriverResult service = RunService(w, batch, window);
        char name[64];
        std::snprintf(name, sizeof name, "k=%zu s=%zu w=%zu", sessions,
                      children, window == 0 ? sessions : window);
        PrintComparison(name, direct, service, sessions, batch);
      }
    }
  }
  std::printf(
      "\nExpected shape: service >= 1.5x direct (Alice-message memoization\n"
      "+ coalesced planner flushes + pooled scratches); max occupancy far\n"
      "above any single session's per-batch key count.\n");
}

}  // namespace
}  // namespace setrec

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return setrec::RunJsonSuite();
    }
    if (std::strcmp(argv[i], "--net") == 0) {
      return setrec::RunNetSuite();
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      return setrec::RunQuickSuite();
    }
    if (std::strcmp(argv[i], "--check-bytes") == 0) {
      return setrec::RunCheckBytes("BENCH_service.json");
    }
    if (std::strncmp(argv[i], "--check-bytes=", 14) == 0) {
      return setrec::RunCheckBytes(argv[i] + 14);
    }
    if (std::strncmp(argv[i], "--net-scale=", 12) == 0) {
      const long connections = std::strtol(argv[i] + 12, nullptr, 10);
      if (connections < 1 || connections > 16000) {
        std::fprintf(stderr, "bench_service: bad --net-scale value "
                             "(fd budget tops out near 16k)\n");
        return 1;
      }
      return setrec::RunNetScaleSuite(static_cast<size_t>(connections));
    }
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const long shards = std::strtol(argv[i] + 9, nullptr, 10);
      if (shards < 1 || shards > 256) {
        std::fprintf(stderr, "bench_service: bad --shards value\n");
        return 1;
      }
      return setrec::RunShardsSuite(static_cast<size_t>(shards));
    }
  }
  setrec::RunTableSuite();
  return 0;
}
